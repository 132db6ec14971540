//! E5 — the §2.2 energy & speed claims.
//!
//! Paper numbers: photonic MAC at 40×10⁻¹⁸ J vs TPU 8-bit MAC at
//! 7×10⁻¹⁴ J (a 1750× gap); TPU clock ≈ 1.05 GHz, A100 ≈ 1.41 GHz,
//! photonic compute at modulator bandwidth (tens of GHz per lane, ×WDM
//! lanes). This harness (a) verifies the constants are wired through the
//! whole stack — the *measured* energy/MAC of a simulated engine run
//! must land on the constant — and (b) reports latency/energy for a DNN
//! workload across all platform models.

use crate::table::{versioned_pretty, Table};
use ofpc_apps::digital::ComputeModel;
use ofpc_core::metrics::SystemReport;
use ofpc_core::scenario::Fig1Scenario;
use ofpc_par::WorkerPool;
use ofpc_photonics::energy::constants;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Serialize)]
struct PlatformRow {
    platform: String,
    mac_energy_j: f64,
    macs_per_joule: f64,
    time_for_1m_macs_us: f64,
}

#[derive(Serialize)]
struct E5Result {
    platforms: Vec<PlatformRow>,
    paper_energy_ratio: f64,
    measured_engine_j_per_mac: f64,
    clock_ratio_photonic_vs_tpu: f64,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E5: §2.2 energy & speed claims\n");
    let platforms = [
        ComputeModel::photonic(),
        ComputeModel::tpu(),
        ComputeModel::gpu(),
        ComputeModel::cpu(),
        ComputeModel::edge_soc(),
        ComputeModel::switch_asic(),
    ];
    let mut t = Table::new(
        "compute platforms on a 1M-MAC DNN workload",
        &["platform", "J/MAC", "MACs/J", "time (µs)"],
    );
    let mut rows = Vec::new();
    for p in &platforms {
        let row = PlatformRow {
            platform: p.name.clone(),
            mac_energy_j: p.mac_energy_j,
            macs_per_joule: 1.0 / p.mac_energy_j,
            time_for_1m_macs_us: p.time_for_macs(1_000_000) * 1e6,
        };
        t.row(&[
            row.platform.clone(),
            format!("{:.1e}", row.mac_energy_j),
            format!("{:.1e}", row.macs_per_joule),
            format!("{:.2}", row.time_for_1m_macs_us),
        ]);
        rows.push(row);
    }
    t.print();

    // The paper's headline ratio.
    let ratio = constants::TPU_MAC_J / constants::PHOTONIC_MAC_J;
    println!("photonic vs TPU energy advantage: {ratio:.0}× (paper: 1750×)");
    assert!((ratio - 1750.0).abs() < 1.0);

    // Clock-rate comparison (§2.2's "orders of magnitude" speed claim is
    // per-device-rate; per-lane photonic symbol rate vs TPU clock).
    let clock_ratio = constants::PHOTONIC_LANE_HZ / constants::TPU_CLOCK_HZ;
    println!(
        "photonic lane rate vs TPU clock: {:.1}× ({:.1} GHz vs {:.2} GHz); A100 {:.2} GHz",
        clock_ratio,
        constants::PHOTONIC_LANE_HZ / 1e9,
        constants::TPU_CLOCK_HZ / 1e9,
        constants::GPU_CLOCK_HZ / 1e9
    );
    assert!(clock_ratio > 10.0, "photonic symbol rate ≫ digital clock");

    // End-to-end verification: run the Fig.-1 scenario and confirm the
    // engines' measured J/MAC lands on the photonic constant (plus the
    // amortized result-readout ADC).
    let mut scenario = Fig1Scenario::build(5);
    let mut rng = SimRng::seed_from_u64(5);
    scenario.inject_traffic(100, 0, 1_000_000, &mut rng);
    scenario.run();
    let report = SystemReport::from_network(&scenario.system.net);
    let measured = report.energy_per_mac_j();
    println!(
        "\nmeasured engine energy: {:.2e} J/MAC over {} MACs (constant: {:.2e} + readout amortization)",
        measured,
        report.engine_macs,
        constants::PHOTONIC_MAC_J
    );
    assert!(measured >= constants::PHOTONIC_MAC_J);
    // With 16–64-element operands the single result-ADC readout (pJ
    // class) dominates the aJ-class MACs — the same amortization effect
    // photonic-accelerator papers report; large matvecs amortize it away.
    assert!(
        measured < 1e-12,
        "per-op readout must stay below a picojoule per MAC"
    );

    versioned_pretty(&E5Result {
        platforms: rows,
        paper_energy_ratio: ratio,
        measured_engine_j_per_mac: measured,
        clock_ratio_photonic_vs_tpu: clock_ratio,
    })
}
