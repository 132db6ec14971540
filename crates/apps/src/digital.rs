//! Digital compute and placement baselines.
//!
//! The paper's §2.2 comparison constants made executable: compute models
//! (energy per MAC, sustained MAC rate, fixed invocation latency) for the
//! platforms Table 1 names as "current compute locations", and placement
//! models that turn a location into end-to-end request latency — a cloud
//! round trip pays fiber propagation both ways, an edge device pays
//! little propagation but computes slowly, in-network photonics computes
//! *during* propagation.

use ofpc_photonics::energy::constants;
use ofpc_photonics::units;

/// A digital (or photonic) compute platform model.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    pub name: String,
    /// Energy per 8-bit MAC, J.
    pub mac_energy_j: f64,
    /// Sustained MAC throughput, MAC/s.
    pub(crate) mac_rate_hz: f64,
    /// Fixed invocation overhead, s (kernel launch, NIC, queueing).
    pub(crate) fixed_latency_s: f64,
}

impl ComputeModel {
    /// TPU-class accelerator (§2.2: 7×10⁻¹⁴ J/MAC at ~1.05 GHz clock).
    pub fn tpu() -> Self {
        ComputeModel {
            name: "tpu".into(),
            mac_energy_j: constants::TPU_MAC_J,
            mac_rate_hz: constants::TPU_MAC_HZ,
            fixed_latency_s: 50e-6,
        }
    }

    /// GPU-class accelerator (§2.2: ~1.41 GHz clock; energy similar
    /// order to TPU per effective MAC).
    pub fn gpu() -> Self {
        ComputeModel {
            name: "gpu".into(),
            mac_energy_j: 1.5 * constants::TPU_MAC_J,
            mac_rate_hz: 15e12,
            fixed_latency_s: 30e-6,
        }
    }

    /// Server CPU.
    pub fn cpu() -> Self {
        ComputeModel {
            name: "cpu".into(),
            mac_energy_j: constants::CPU_MAC_J,
            mac_rate_hz: constants::CPU_MAC_HZ,
            fixed_latency_s: 5e-6,
        }
    }

    /// Edge-device SoC: an order slower and less efficient than a
    /// server CPU class for sustained MACs.
    pub fn edge_soc() -> Self {
        ComputeModel {
            name: "edge-soc".into(),
            mac_energy_j: 2.0 * constants::CPU_MAC_J,
            mac_rate_hz: 5e9,
            fixed_latency_s: 1e-6,
        }
    }

    /// Programmable switch ASIC ALUs: fast per-op but a tiny op budget
    /// per packet — the §1 "die already at capacity" constraint.
    pub fn switch_asic() -> Self {
        ComputeModel {
            name: "switch-asic".into(),
            mac_energy_j: constants::SWITCH_ALU_OP_J,
            mac_rate_hz: 1e12,
            fixed_latency_s: 1e-7,
        }
    }

    /// The photonic engine (§2.2: 40 aJ/MAC; lane rate set by the
    /// modulator bandwidth).
    pub fn photonic() -> Self {
        ComputeModel {
            name: "photonic".into(),
            mac_energy_j: constants::PHOTONIC_MAC_J,
            mac_rate_hz: constants::PHOTONIC_LANE_HZ,
            fixed_latency_s: 5e-9,
        }
    }

    /// Time to execute `macs` multiply-accumulates, s.
    pub fn time_for_macs(&self, macs: u64) -> f64 {
        self.fixed_latency_s + macs as f64 / self.mac_rate_hz
    }

    /// Energy to execute `macs` multiply-accumulates, J.
    pub fn energy_for_macs(&self, macs: u64) -> f64 {
        macs as f64 * self.mac_energy_j
    }
}

/// Where the computation happens, with its path geometry.
#[derive(Debug, Clone)]
pub enum Placement {
    /// Ship to a cloud DC `detour_km` of extra fiber away (each way),
    /// compute, ship onward/back.
    Cloud { detour_km: f64 },
    /// Compute on the end device before transmitting (no detour).
    EndDevice,
    /// Compute in-network while the packet traverses its normal path.
    OnFiber,
}

/// Fiber every modeled request travels from source to destination, km.
const PATH_KM: f64 = 1500.0;

/// Line rate every modeled request is serialized at, bits/s.
const LINE_RATE_BPS: f64 = 100e9;

/// End-to-end request model: a request travels 1500 km of fiber from
/// source to destination at 100 Gb/s and needs `macs` of computation
/// somewhere.
#[derive(Debug, Clone)]
pub struct RequestModel {
    pub macs: u64,
    /// Request + response bytes (serialization delay).
    pub bytes: usize,
}

impl RequestModel {
    fn serialization_s(&self) -> f64 {
        self.bytes as f64 * 8.0 / LINE_RATE_BPS
    }

    /// Total request latency under a placement/compute pairing, s.
    pub fn latency_s(&self, placement: &Placement, compute: &ComputeModel) -> f64 {
        let direct = units::fiber_delay_s(PATH_KM) + self.serialization_s();
        match placement {
            Placement::Cloud { detour_km } => {
                // Source → cloud → destination: the detour adds fiber
                // both into and out of the DC.
                direct + 2.0 * units::fiber_delay_s(*detour_km) + compute.time_for_macs(self.macs)
            }
            Placement::EndDevice => direct + compute.time_for_macs(self.macs),
            Placement::OnFiber => {
                // Computation overlaps propagation; only the engine's
                // pipeline latency adds.
                direct + compute.fixed_latency_s + self.macs as f64 / compute.mac_rate_hz
            }
        }
    }

    /// Compute energy under a pairing, J (path transmission energy is
    /// common to all placements and excluded).
    pub fn compute_energy_j(&self, compute: &ComputeModel) -> f64 {
        compute.energy_for_macs(self.macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_energy_ratio_holds() {
        let tpu = ComputeModel::tpu();
        let phot = ComputeModel::photonic();
        let ratio = tpu.mac_energy_j / phot.mac_energy_j;
        assert!((ratio - 1750.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn time_and_energy_scale_with_macs() {
        let m = ComputeModel::cpu();
        assert!(m.time_for_macs(2_000) > m.time_for_macs(1_000));
        assert!((m.energy_for_macs(1_000) - 1_000.0 * m.mac_energy_j).abs() < 1e-18);
        assert_eq!(m.energy_for_macs(0), 0.0);
    }

    #[test]
    fn on_fiber_beats_cloud_on_latency() {
        let req = RequestModel {
            macs: 1_000_000,
            bytes: 1_500,
        };
        let cloud = req.latency_s(&Placement::Cloud { detour_km: 400.0 }, &ComputeModel::tpu());
        let on_fiber = req.latency_s(&Placement::OnFiber, &ComputeModel::photonic());
        assert!(
            on_fiber < cloud,
            "on-fiber {on_fiber} should beat cloud {cloud}"
        );
        // The win is the detour: ≥ 2×400 km of fiber ≈ 3.9 ms.
        assert!(cloud - on_fiber > 3.5e-3);
    }

    #[test]
    fn edge_is_latency_competitive_but_slow_for_big_models() {
        let small = RequestModel {
            macs: 10_000,
            bytes: 200,
        };
        let big = RequestModel {
            macs: 500_000_000,
            ..small.clone()
        };
        let edge_small = small.latency_s(&Placement::EndDevice, &ComputeModel::edge_soc());
        let cloud_small =
            small.latency_s(&Placement::Cloud { detour_km: 400.0 }, &ComputeModel::tpu());
        assert!(edge_small < cloud_small, "small models favor the edge");
        let edge_big = big.latency_s(&Placement::EndDevice, &ComputeModel::edge_soc());
        let cloud_big = big.latency_s(&Placement::Cloud { detour_km: 400.0 }, &ComputeModel::tpu());
        assert!(cloud_big < edge_big, "big models overwhelm the edge SoC");
    }

    #[test]
    fn photonic_energy_dominates_all_baselines() {
        let req = RequestModel {
            macs: 1_000_000,
            bytes: 1_000,
        };
        let phot = req.compute_energy_j(&ComputeModel::photonic());
        for model in [
            ComputeModel::tpu(),
            ComputeModel::gpu(),
            ComputeModel::cpu(),
            ComputeModel::edge_soc(),
            ComputeModel::switch_asic(),
        ] {
            assert!(
                req.compute_energy_j(&model) > 10.0 * phot,
                "{} should cost ≫ photonic",
                model.name
            );
        }
    }

    #[test]
    fn on_fiber_latency_is_propagation_dominated() {
        let req = RequestModel {
            macs: 4_096,
            bytes: 600,
        };
        let lat = req.latency_s(&Placement::OnFiber, &ComputeModel::photonic());
        let prop = units::fiber_delay_s(1500.0);
        assert!((lat - prop) / prop < 0.01, "overhead {}", lat - prop);
    }
}
