//! The commodity transponder of Fig. 3: a TX path and an RX path, no
//! compute. This is both the baseline device of experiment E3 and the
//! regeneration stage every node (compute-capable or not) uses to put
//! frames back on the next fiber span.

use crate::rxpath::{RxConfig, RxPath};
use crate::txpath::{TxConfig, TxPath};
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::SimRng;

/// A commodity optical transponder (Fig. 3).
#[derive(Debug, Clone)]
pub struct CommodityTransponder {
    pub tx: TxPath,
    pub rx: RxPath,
}

impl CommodityTransponder {
    pub fn new(tx_config: TxConfig, rx_config: RxConfig, rng: &mut SimRng) -> Self {
        let tx = TxPath::new(tx_config, rng);
        let rx = RxPath::new(rx_config, rng);
        CommodityTransponder { tx, rx }
    }

    /// Ideal loopback-grade transponder.
    pub fn ideal(rng: &mut SimRng) -> Self {
        let mut t = CommodityTransponder::new(TxConfig::ideal(), RxConfig::ideal(), rng);
        t.rx.calibrate_for_one_level(t.tx.one_level_w());
        t
    }

    /// Realistic transponder, receiver calibrated for a link of
    /// `link_loss_db` between peer TX and this RX.
    pub fn realistic(link_loss_db: f64, rng: &mut SimRng) -> Self {
        let mut t = CommodityTransponder::new(TxConfig::realistic(), RxConfig::realistic(), rng);
        let rx_power = t.tx.one_level_w() * ofpc_photonics::units::db_to_linear(-link_loss_db);
        t.rx.calibrate_for_one_level(rx_power);
        t
    }

    /// Combined energy ledger.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = self.tx.energy_ledger();
        ledger.merge(&self.rx.energy_ledger());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameError};
    use ofpc_photonics::fiber::FiberSpan;
    use ofpc_photonics::signal::OpticalField;

    /// Detect and slice `field` at `t`'s receiver, then parse the first
    /// frame whose preamble it finds.
    fn receive(t: &mut CommodityTransponder, field: &OpticalField) -> Result<Frame, FrameError> {
        let bits = t.rx.receive(field);
        let off = Frame::find_preamble(&bits).ok_or(FrameError::BadPreamble(0))?;
        Frame::from_bits(&bits[off..]).map(|(frame, _)| frame)
    }

    #[test]
    fn loopback_frame_round_trip() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut t = CommodityTransponder::ideal(&mut rng);
        let frame = Frame::data(&b"the quick brown photon"[..]);
        let field = t.tx.transmit(&frame.to_bits());
        assert_eq!(receive(&mut t, &field).unwrap(), frame);
    }

    #[test]
    fn span_transfer_with_matched_calibration() {
        let mut rng = SimRng::seed_from_u64(1);
        let span = FiberSpan::compensated(40.0);
        let mut a = CommodityTransponder::ideal(&mut rng);
        let mut b = CommodityTransponder::new(TxConfig::ideal(), RxConfig::ideal(), &mut rng);
        b.rx.calibrate_for_one_level(
            a.tx.one_level_w() * ofpc_photonics::units::db_to_linear(-span.total_loss_db()),
        );
        let frame = Frame::compute(1, &[9u8, 8, 7][..]);
        let received = span.propagate(&a.tx.transmit(&frame.to_bits()));
        assert_eq!(receive(&mut b, &received).unwrap(), frame);
    }

    #[test]
    fn realistic_link_survives_metro_distance() {
        let mut rng = SimRng::seed_from_u64(2);
        let span = FiberSpan::compensated(40.0);
        let mut a = CommodityTransponder::realistic(0.0, &mut rng);
        let mut b = CommodityTransponder::realistic(span.total_loss_db(), &mut rng);
        let frame = Frame::data(&b"metro hop payload 123456"[..]);
        let received = span.propagate(&a.tx.transmit(&frame.to_bits()));
        assert_eq!(receive(&mut b, &received).unwrap(), frame);
    }

    #[test]
    fn unlit_fiber_yields_no_frame() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut t = CommodityTransponder::ideal(&mut rng);
        let dark = OpticalField::dark(256, 32e9, 1550e-9);
        assert!(receive(&mut t, &dark).is_err());
    }

    #[test]
    fn energy_ledger_spans_both_paths() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut t = CommodityTransponder::realistic(0.0, &mut rng);
        let frame = Frame::data(&b"energy"[..]);
        let field = t.tx.transmit(&frame.to_bits());
        let _ = receive(&mut t, &field);
        let ledger = t.energy_ledger();
        assert!(ledger.get("tx-dac") > 0.0);
        assert!(ledger.get("rx-adc") > 0.0);
    }
}
