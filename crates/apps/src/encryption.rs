//! Data encryption on fiber (Table 1, class C2).
//!
//! Stream-cipher encryption executed in the optical phase domain: with
//! BPSK bit encoding (phases 0/π), XOR-ing a key bit into a data bit *is*
//! a π phase shift — addition of phases modulo 2π. A single phase
//! modulator driven by the keystream therefore encrypts the passing
//! light ("photonic encryption hardware"); the symmetric modulator at
//! the receiving transponder decrypts. No per-bit DAC/ADC is involved.
//!
//! The keystream comes from a from-scratch xoshiro-style generator keyed
//! by a shared secret (a real deployment would run a standardized stream
//! cipher; the network-level mechanics are identical). The digital
//! baseline charges CPU energy per encrypted byte.

use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{PhaseModulator, PhaseModulatorConfig};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

/// Keystream generator (xoshiro256**-style; NOT a vetted cipher — a
/// stand-in with the right interface and statistical behavior).
#[derive(Debug, Clone)]
pub(crate) struct Keystream {
    s: [u64; 4],
}

impl Keystream {
    pub(crate) fn from_key(key: u64) -> Self {
        // SplitMix64 expansion of the key into the state.
        let mut z = key;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = x ^ (x >> 31);
        }
        Keystream { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next `n` keystream bits.
    pub(crate) fn bits(&mut self, n: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let word = self.next_u64();
            for i in 0..64 {
                if out.len() == n {
                    break;
                }
                out.push((word >> i) & 1 == 1);
            }
        }
        out
    }

    /// Next `n` keystream bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let word = self.next_u64();
            for i in 0..8 {
                if out.len() == n {
                    break;
                }
                out.push((word >> (8 * i)) as u8);
            }
        }
        out
    }
}

/// Digital XOR stream cipher baseline with a CPU energy meter.
#[derive(Debug, Clone)]
pub struct DigitalCipher {
    key: u64,
    pub(crate) bytes_processed: u64,
    /// CPU energy per byte (AES-class software: order 10 pJ/byte on
    /// modern cores with AES-NI; higher on edge devices).
    pub(crate) energy_per_byte_j: f64,
}

impl DigitalCipher {
    pub fn new(key: u64) -> Self {
        DigitalCipher {
            key,
            bytes_processed: 0,
            energy_per_byte_j: 20e-12,
        }
    }

    /// Encrypt (or decrypt — XOR is symmetric) a buffer.
    pub fn process(&mut self, data: &[u8]) -> Vec<u8> {
        let mut ks = Keystream::from_key(self.key);
        let pad = ks.bytes(data.len());
        self.bytes_processed += data.len() as u64;
        data.iter().zip(pad).map(|(d, k)| d ^ k).collect()
    }

    pub fn energy_j(&self) -> f64 {
        self.bytes_processed as f64 * self.energy_per_byte_j
    }
}

/// The photonic phase-domain encryptor: BPSK data light through one
/// phase modulator driven by the keystream.
#[derive(Debug)]
pub struct PhotonicCipher {
    key: u64,
    laser: Laser,
    pm: PhaseModulator,
    sample_rate_hz: f64,
}

impl PhotonicCipher {
    pub fn new(key: u64, rng: &mut SimRng) -> Self {
        PhotonicCipher {
            key,
            laser: Laser::new(
                LaserConfig {
                    rin_db_hz: f64::NEG_INFINITY,
                    linewidth_hz: 0.0,
                    ..LaserConfig::default()
                },
                rng.derive("cipher-laser"),
            ),
            // Ideal optics (exact phases) but realistic drive energy, so
            // the energy comparison against the CPU baseline is honest.
            pm: PhaseModulator::new(PhaseModulatorConfig {
                insertion_loss_db: 0.0,
                bandwidth_hz: 0.0,
                ..PhaseModulatorConfig::default()
            }),
            sample_rate_hz: 32e9,
        }
    }

    /// Encrypt data bits: BPSK-encode them onto light, then add the key
    /// phase. Returns the per-bit *phase* of the output light (what a
    /// coherent receiver reads), demonstrating the ciphertext is the
    /// XOR.
    pub fn encrypt_bits(&mut self, data: &[bool]) -> Vec<f64> {
        assert!(!data.is_empty(), "nothing to encrypt");
        let n = data.len();
        let light = self.laser.emit(n, self.sample_rate_hz);
        // Stage 1: BPSK data encoding (this is the transponder's normal
        // modulator in a coherent system).
        let data_drive = AnalogWaveform::new(
            data.iter()
                .map(|&b| {
                    self.pm
                        .drive_for_phase(if b { std::f64::consts::PI } else { 0.0 })
                })
                .collect(),
            self.sample_rate_hz,
        );
        let encoded = self.pm.modulate(&light, &data_drive);
        // Stage 2: the key phase — the actual encryption device.
        let mut ks = Keystream::from_key(self.key);
        let key_bits = ks.bits(n);
        let key_drive = AnalogWaveform::new(
            key_bits
                .iter()
                .map(|&b| {
                    self.pm
                        .drive_for_phase(if b { std::f64::consts::PI } else { 0.0 })
                })
                .collect(),
            self.sample_rate_hz,
        );
        let cipher = self.pm.modulate(&encoded, &key_drive);
        cipher.samples.iter().map(|s| s.arg()).collect()
    }

    /// Decrypt: apply the key phase again (π + π = 2π ≡ 0) and slice.
    pub fn decrypt_phases(&mut self, phases: &[f64]) -> Vec<bool> {
        let mut ks = Keystream::from_key(self.key);
        let key_bits = ks.bits(phases.len());
        phases
            .iter()
            .zip(key_bits)
            .map(|(&ph, k)| {
                let ph = ph + if k { std::f64::consts::PI } else { 0.0 };
                // Phase near π (mod 2π) = bit 1.
                let wrapped =
                    (ph % std::f64::consts::TAU + std::f64::consts::TAU) % std::f64::consts::TAU;
                (wrapped - std::f64::consts::PI).abs() < std::f64::consts::FRAC_PI_2
            })
            .collect()
    }

    /// Phase-modulator drive energy so far, J.
    pub fn energy_j(&self) -> f64 {
        self.pm.energy_consumed_j()
    }
}

/// Convert bytes to bits (MSB first).
pub fn bits_of(bytes: &[u8]) -> Vec<bool> {
    ofpc_engine::correlator::bytes_to_bits(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keystream_is_deterministic_and_balanced() {
        let mut a = Keystream::from_key(42);
        let mut b = Keystream::from_key(42);
        assert_eq!(a.bits(256), b.bits(256));
        let mut c = Keystream::from_key(43);
        assert_ne!(a.bits(256), c.bits(256));
        // Roughly half ones.
        let mut k = Keystream::from_key(7);
        let ones = k.bits(10_000).iter().filter(|&&b| b).count();
        assert!((4_500..5_500).contains(&ones), "ones {ones}");
    }

    #[test]
    fn digital_cipher_round_trips() {
        let mut enc = DigitalCipher::new(99);
        let mut dec = DigitalCipher::new(99);
        let msg = b"secrets on fiber";
        let ct = enc.process(msg);
        assert_ne!(&ct[..], &msg[..]);
        assert_eq!(dec.process(&ct), msg.to_vec());
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let mut enc = DigitalCipher::new(1);
        let mut dec = DigitalCipher::new(2);
        let msg = b"attack at dawn!!";
        assert_ne!(dec.process(&enc.process(msg)), msg.to_vec());
    }

    #[test]
    fn photonic_cipher_round_trips() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut alice = PhotonicCipher::new(0xDEADBEEF, &mut rng);
        let mut bob = PhotonicCipher::new(0xDEADBEEF, &mut rng);
        let msg = bits_of(b"photonic secret payload");
        let phases = alice.encrypt_bits(&msg);
        let got = bob.decrypt_phases(&phases);
        assert_eq!(got, msg);
    }

    #[test]
    fn ciphertext_phase_hides_plaintext() {
        // The on-fiber phases must differ from the plain BPSK encoding
        // wherever the key bit is 1 (~half the positions).
        let mut rng = SimRng::seed_from_u64(1);
        let mut alice = PhotonicCipher::new(5, &mut rng);
        let msg = vec![false; 128]; // all-zeros plaintext
        let phases = alice.encrypt_bits(&msg);
        // Plain encoding of 0 is phase 0; count positions pushed to π.
        let flipped = phases
            .iter()
            .filter(|&&p| {
                let w = (p % std::f64::consts::TAU + std::f64::consts::TAU) % std::f64::consts::TAU;
                (w - std::f64::consts::PI).abs() < 0.1
            })
            .count();
        assert!((40..90).contains(&flipped), "flipped {flipped}/128");
    }

    #[test]
    fn wrong_key_photonic_decrypt_garbles() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut alice = PhotonicCipher::new(10, &mut rng);
        let mut eve = PhotonicCipher::new(11, &mut rng);
        let msg = bits_of(b"confidential");
        let phases = alice.encrypt_bits(&msg);
        let guess = eve.decrypt_phases(&phases);
        let wrong = guess.iter().zip(&msg).filter(|(a, b)| a != b).count();
        assert!(wrong > msg.len() / 4, "only {wrong} wrong bits");
    }

    #[test]
    fn photonic_energy_beats_cpu_baseline() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut phot = PhotonicCipher::new(1, &mut rng);
        let mut cpu = DigitalCipher::new(1);
        let msg = vec![0xA5u8; 1_000];
        let bits = bits_of(&msg);
        phot.encrypt_bits(&bits);
        cpu.process(&msg);
        // Phase-mod drive at tens of fJ/bit vs tens of pJ/byte on CPU.
        assert!(
            phot.energy_j() < cpu.energy_j(),
            "photonic {} vs cpu {}",
            phot.energy_j(),
            cpu.energy_j()
        );
    }

    #[test]
    fn bits_of_is_msb_first() {
        let bits = bits_of(&[0x00, 0xFF, 0xA5]);
        assert_eq!(bits.len(), 24);
        assert!(bits[..8].iter().all(|&b| !b));
        assert!(bits[8..16].iter().all(|&b| b));
        // MSB first: 0xA5 = 1010_0101.
        let a5 = [true, false, true, false, false, true, false, true];
        assert_eq!(bits[16..], a5);
    }
}
