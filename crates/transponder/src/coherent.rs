//! Coherent QPSK transponder path.
//!
//! Deployed WAN transponders are coherent (the 100G/800G systems of
//! Roberts et al. that Fig. 3 is drawn from): an IQ modulator writes two
//! bits per symbol as the field's quadrant, and a coherent receiver
//! recovers both quadratures — doubling spectral efficiency over the OOK
//! path in [`crate::txpath`]/[`crate::rxpath`] and gaining LO-powered
//! sensitivity. Carrier/phase recovery is assumed ideal (it is the DSP
//! ASIC's job in hardware and orthogonal to the on-fiber computing
//! story; the fiber model's deterministic carrier phase is inverted
//! exactly).

use ofpc_photonics::iq::{CoherentReceiver, IqModulator};
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::MzmConfig;
use ofpc_photonics::signal::{AnalogWaveform, OpticalField};
use ofpc_photonics::SimRng;

/// QPSK amplitude per rail (unit-energy symbols).
const RAIL: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Map a bit pair to a Gray-coded QPSK symbol `(i, q)`.
pub fn qpsk_map(b0: bool, b1: bool) -> (f64, f64) {
    (if b0 { RAIL } else { -RAIL }, if b1 { RAIL } else { -RAIL })
}

/// Slice received quadratures back to a bit pair.
pub fn qpsk_slice(i: f64, q: f64) -> (bool, bool) {
    (i > 0.0, q > 0.0)
}

/// Coherent transmit path: laser → IQ modulator.
#[derive(Debug)]
pub struct CoherentTx {
    laser: Laser,
    iq: IqModulator,
    pub(crate) symbol_rate_hz: f64,
    pub(crate) bits_sent: u64,
}

impl CoherentTx {
    pub(crate) fn new(
        laser: LaserConfig,
        mzm: MzmConfig,
        symbol_rate_hz: f64,
        rng: &mut SimRng,
    ) -> Self {
        CoherentTx {
            laser: Laser::new(laser, rng.derive("coh-tx-laser")),
            iq: IqModulator::new(mzm),
            symbol_rate_hz,
            bits_sent: 0,
        }
    }

    pub fn ideal(rng: &mut SimRng) -> Self {
        CoherentTx::new(
            LaserConfig {
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                wall_plug_w: 0.0,
                ..LaserConfig::default()
            },
            MzmConfig::ideal(),
            32e9,
            rng,
        )
    }

    /// Transmit a bit sequence (padded to an even count with a zero).
    pub fn transmit(&mut self, bits: &[bool]) -> OpticalField {
        assert!(!bits.is_empty(), "cannot transmit zero bits");
        let mut padded = bits.to_vec();
        if padded.len() % 2 == 1 {
            padded.push(false);
        }
        let n_sym = padded.len() / 2;
        let carrier = self.laser.emit(n_sym, self.symbol_rate_hz);
        let mut di = Vec::with_capacity(n_sym);
        let mut dq = Vec::with_capacity(n_sym);
        for pair in padded.chunks(2) {
            let (i, q) = qpsk_map(pair[0], pair[1]);
            di.push(self.iq.drive_for_amplitude(i));
            dq.push(self.iq.drive_for_amplitude(q));
        }
        let out = self.iq.modulate(
            &carrier,
            &AnalogWaveform::new(di, self.symbol_rate_hz),
            &AnalogWaveform::new(dq, self.symbol_rate_hz),
        );
        self.bits_sent += bits.len() as u64;
        out
    }
}

/// Coherent receive path: 90° hybrid + balanced detection + slicing.
#[derive(Debug)]
pub struct CoherentRx {
    rx: CoherentReceiver,
    pub(crate) bits_received: u64,
}

impl CoherentRx {
    pub fn ideal(rng: &mut SimRng) -> Self {
        let _ = rng;
        CoherentRx {
            rx: CoherentReceiver::ideal(),
            bits_received: 0,
        }
    }

    /// Detect and slice a QPSK field back to bits (2 per symbol).
    /// `carrier_phase` is the accumulated fiber carrier phase the DSP's
    /// carrier recovery has estimated (exact in this model: pass
    /// the span's known rotation, or 0 for back-to-back).
    pub fn receive(&mut self, field: &OpticalField, carrier_phase: f64) -> Vec<bool> {
        // Ideal carrier recovery: derotate before detection.
        let mut derotated = field.clone();
        derotated.rotate_phase(-carrier_phase);
        let (i, q) = self.rx.detect(&derotated);
        let mut bits = Vec::with_capacity(2 * field.len());
        for k in 0..field.len() {
            let (b0, b1) = qpsk_slice(i.samples[k], q.samples[k]);
            bits.push(b0);
            bits.push(b1);
        }
        self.bits_received += bits.len() as u64;
        bits
    }
}

/// The carrier phase a fiber span imparts (what DSP carrier recovery
/// estimates; exact in this deterministic model).
pub fn span_carrier_phase(span: &ofpc_photonics::fiber::FiberSpan, wavelength_m: f64) -> f64 {
    (std::f64::consts::TAU * span.length_km * 1e3 / wavelength_m) % std::f64::consts::TAU
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_photonics::fiber::FiberSpan;

    #[test]
    fn qpsk_constellation_is_gray_coded() {
        // Adjacent quadrants differ in exactly one bit.
        let symbols = [(false, false), (false, true), (true, true), (true, false)];
        for w in symbols.windows(2) {
            let d = (w[0].0 != w[1].0) as u32 + (w[0].1 != w[1].1) as u32;
            assert_eq!(d, 1);
        }
        // Map/slice round trip.
        for &(b0, b1) in &symbols {
            let (i, q) = qpsk_map(b0, b1);
            assert_eq!(qpsk_slice(i, q), (b0, b1));
            assert!((i * i + q * q - 1.0).abs() < 1e-12, "unit energy");
        }
    }

    #[test]
    fn back_to_back_loopback() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut tx = CoherentTx::ideal(&mut rng);
        let mut rx = CoherentRx::ideal(&mut rng);
        let bits: Vec<bool> = (0..128).map(|i| i % 3 == 0).collect();
        let field = tx.transmit(&bits);
        assert_eq!(field.len(), 64, "2 bits per symbol");
        let got = rx.receive(&field, 0.0);
        assert_eq!(got, bits);
    }

    #[test]
    fn odd_bit_counts_pad() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut tx = CoherentTx::ideal(&mut rng);
        let mut rx = CoherentRx::ideal(&mut rng);
        let bits = vec![true, false, true];
        let got = rx.receive(&tx.transmit(&bits), 0.0);
        assert_eq!(&got[..3], &bits[..]);
        assert!(!got[3], "pad bit is zero");
    }

    #[test]
    fn survives_a_long_span_with_carrier_recovery() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut tx = CoherentTx::ideal(&mut rng);
        let mut rx = CoherentRx::ideal(&mut rng);
        let span = FiberSpan::compensated(80.0);
        let bits: Vec<bool> = (0..200).map(|i| (i * 7) % 5 < 2).collect();
        let field = span.propagate(&tx.transmit(&bits));
        let phase = span_carrier_phase(&span, field.wavelength_m);
        let got = rx.receive(&field, phase);
        assert_eq!(got, bits);
    }

    #[test]
    fn without_carrier_recovery_the_constellation_spins() {
        // The same span decoded with zero phase estimate garbles bits —
        // demonstrating why the DSP's carrier recovery is load-bearing.
        let mut rng = SimRng::seed_from_u64(3);
        let mut tx = CoherentTx::ideal(&mut rng);
        let mut rx = CoherentRx::ideal(&mut rng);
        // Pick a span whose carrier phase is near 45°(mod 90°) so the
        // uncorrected constellation lands between decision boundaries.
        let mut span = FiberSpan::compensated(80.0);
        let wl = ofpc_photonics::units::C_BAND_WAVELENGTH_M;
        let mut best_km = span.length_km;
        let mut best_err = f64::MAX;
        for delta in 0..200 {
            let km = 80.0 + delta as f64 * 1e-10; // sub-wavelength trims
            let ph = (std::f64::consts::TAU * km * 1e3 / wl) % std::f64::consts::FRAC_PI_2;
            let err = (ph - std::f64::consts::FRAC_PI_4).abs();
            if err < best_err {
                best_err = err;
                best_km = km;
            }
        }
        span.length_km = best_km;
        let bits: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let field = span.propagate(&tx.transmit(&bits));
        let got = rx.receive(&field, 0.0);
        let errors = got.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert!(
            errors > 20,
            "expected gross errors without recovery, got {errors}"
        );
    }

    #[test]
    fn coherent_beats_ook_at_low_power() {
        // At −40 dBm received power with thermal-noise-limited PDs, the
        // 13 dBm LO lifts the coherent signal above the floor while
        // direct detection drowns.
        let mut rng = SimRng::seed_from_u64(4);
        let bits: Vec<bool> = (0..400).map(|i| (i * 13) % 7 < 3).collect();

        // Coherent with noisy PDs.
        let mut tx = CoherentTx::ideal(&mut rng);
        let mut cfg = ofpc_photonics::iq::CoherentRxConfig::ideal();
        cfg.pd = ofpc_photonics::photodetector::PhotodetectorConfig::default();
        let mut rx = CoherentRx {
            rx: CoherentReceiver::new(cfg, &mut rng),
            bits_received: 0,
        };
        let mut field = tx.transmit(&bits);
        field.attenuate_db(53.0); // 13 dBm launch → −40 dBm received
        let got = rx.receive(&field, 0.0);
        let coherent_errors = got.iter().zip(&bits).filter(|(a, b)| a != b).count();

        // Direct detection (OOK path) at the same received power.
        let mut ook_tx = crate::txpath::TxPath::new(crate::txpath::TxConfig::ideal(), &mut rng);
        let mut ook_rx = crate::rxpath::RxPath::new(
            crate::rxpath::RxConfig {
                pd: ofpc_photonics::photodetector::PhotodetectorConfig::default(),
                ..crate::rxpath::RxConfig::ideal()
            },
            &mut rng,
        );
        ook_rx.calibrate_for_one_level(
            ook_tx.one_level_w() * ofpc_photonics::units::db_to_linear(-53.0),
        );
        let mut ook_field = ook_tx.transmit(&bits);
        ook_field.attenuate_db(53.0);
        let ook_got = ook_rx.receive(&ook_field);
        let ook_errors = ook_got.iter().zip(&bits).filter(|(a, b)| a != b).count();

        assert!(
            coherent_errors < ook_errors / 3,
            "coherent {coherent_errors} errors vs OOK {ook_errors}"
        );
        // The residual coherent errors are the LO shot-noise limit
        // (Q ≈ 2 at this power) — physically expected, not a bug.
        assert!(
            coherent_errors < 40,
            "coherent error rate should stay below 10% ({coherent_errors}/400)"
        );
    }
}
