//! Pattern matching on *encrypted* optical data (§5 "Security" / §6
//! "computing on the encrypted optical data").
//!
//! The paper defers security but notes that on-fiber computing "allows
//! computing in the physical layer in the optical format without the
//! need to read the packet data" and could combine with encrypted
//! computation. This module demonstrates the concrete mechanism that
//! falls out of the phase-domain physics:
//!
//! **Phase-XOR encryption commutes with interference matching.** With
//! BPSK encoding, encrypting bit `dᵢ` with key bit `kᵢ` is a phase
//! addition; the P2 matcher's difference port measures the pairwise
//! phase *difference* between data and pattern arms. If the rule owner
//! encrypts the pattern with the same keystream the sender used
//! (`d⊕k` vs `p⊕k`), every per-symbol difference is unchanged:
//! `(d⊕k) ⊕ (p⊕k) = d ⊕ p`. The transponder therefore computes the
//! exact Hamming distance **without ever holding the key or seeing the
//! plaintext** — and anyone matching against an *unencrypted* pattern
//! learns nothing (distance ≈ n/2, indistinguishable from random).

use crate::encryption::Keystream;
use ofpc_engine::matcher::{MatcherConfig, PatternMatcher};
use ofpc_photonics::SimRng;

/// XOR a bit vector with the keystream derived from `key`.
pub fn encrypt_bits(bits: &[bool], key: u64) -> Vec<bool> {
    let mut ks = Keystream::from_key(key);
    let pad = ks.bits(bits.len());
    bits.iter().zip(pad).map(|(&b, k)| b ^ k).collect()
}

/// A secure matching deployment: the network-side matcher plus the
/// encrypted rule it was configured with. The key never reaches the
/// matcher — only the ciphertext pattern does.
#[derive(Debug)]
pub struct SecureMatcher {
    matcher: PatternMatcher,
    /// The encrypted pattern installed by the rule owner.
    encrypted_pattern: Vec<bool>,
}

impl SecureMatcher {
    /// The *rule owner* (who shares `key` with the sender, not with the
    /// network) encrypts the plaintext pattern and installs only the
    /// ciphertext.
    pub(crate) fn install(
        config: MatcherConfig,
        plaintext_pattern: &[bool],
        key: u64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!plaintext_pattern.is_empty(), "empty pattern");
        let mut matcher = PatternMatcher::new(config, rng);
        matcher.calibrate(128);
        SecureMatcher {
            matcher,
            encrypted_pattern: encrypt_bits(plaintext_pattern, key),
        }
    }

    pub fn ideal(plaintext_pattern: &[bool], key: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        SecureMatcher::install(MatcherConfig::ideal(), plaintext_pattern, key, &mut rng)
    }

    /// Match ciphertext data (as it arrives on the fiber) against the
    /// installed ciphertext rule. Returns the *plaintext* Hamming
    /// distance — computed without decryption.
    pub fn match_ciphertext(&mut self, encrypted_data: &[bool]) -> f64 {
        self.matcher
            .match_block(encrypted_data, &self.encrypted_pattern)
            .distance_estimate
    }

    /// What an adversary (or a matcher holding only a *plaintext* rule)
    /// would measure against the ciphertext.
    pub fn match_ciphertext_against_plaintext_rule(
        &mut self,
        encrypted_data: &[bool],
        plaintext_pattern: &[bool],
    ) -> f64 {
        self.matcher
            .match_block(encrypted_data, plaintext_pattern)
            .distance_estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn xor_round_trips() {
        let data = bits("1011001011110000");
        let enc = encrypt_bits(&data, 99);
        assert_ne!(enc, data, "ciphertext differs from plaintext");
        assert_eq!(encrypt_bits(&enc, 99), data, "same key decrypts");
    }

    #[test]
    fn encrypted_match_recovers_plaintext_distance() {
        let key = 0xC0FFEE;
        let pattern = bits("10110010111100001011001011110000");
        // Data differs from the pattern in exactly 3 positions.
        let mut data = pattern.clone();
        for &i in &[2usize, 13, 29] {
            data[i] = !data[i];
        }
        let mut sm = SecureMatcher::ideal(&pattern, key);
        let enc_data = encrypt_bits(&data, key);
        let dist = sm.match_ciphertext(&enc_data);
        assert!((dist - 3.0).abs() < 0.1, "distance {dist}");
    }

    #[test]
    fn exact_match_through_encryption() {
        let key = 7;
        let pattern = bits("1100101011110000");
        let mut sm = SecureMatcher::ideal(&pattern, key);
        let dist = sm.match_ciphertext(&encrypt_bits(&pattern, key));
        assert!(dist < 0.1, "distance {dist}");
    }

    #[test]
    fn wrong_key_looks_random() {
        let pattern = bits("11001010111100001100101011110000");
        let mut sm = SecureMatcher::ideal(&pattern, 1);
        // Sender used a different key: distance ≈ n/2, no information.
        let dist = sm.match_ciphertext(&encrypt_bits(&pattern, 2));
        let n = pattern.len() as f64;
        assert!(
            (dist - n / 2.0).abs() < n * 0.3,
            "distance {dist} should look random"
        );
    }

    #[test]
    fn plaintext_rule_learns_nothing_from_ciphertext() {
        // The security property: matching ciphertext against the
        // *plaintext* rule (i.e., a matcher without the rule owner's
        // cooperation) measures ≈ n/2 whether or not the data matched.
        let key = 0xDEAD;
        let pattern = bits("1011001011110000101100101111000010110010111100001011001011110000");
        let n = pattern.len() as f64;
        let mut sm = SecureMatcher::ideal(&pattern, key);
        let matching = encrypt_bits(&pattern, key);
        let mut non_matching = pattern.clone();
        for b in non_matching.iter_mut().take(8) {
            *b = !*b;
        }
        let non_matching = encrypt_bits(&non_matching, key);
        let d1 = sm.match_ciphertext_against_plaintext_rule(&matching, &pattern);
        let d2 = sm.match_ciphertext_against_plaintext_rule(&non_matching, &pattern);
        for d in [d1, d2] {
            assert!(
                (d - n / 2.0).abs() < n * 0.25,
                "plaintext-rule distance {d} leaks structure (n={n})"
            );
        }
        // While the encrypted rule still discriminates perfectly.
        assert!(sm.match_ciphertext(&matching) < 0.5);
        assert!(sm.match_ciphertext(&non_matching) > 7.0);
    }

    #[test]
    fn noisy_hardware_preserves_the_property() {
        let key = 42;
        let pattern: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let mut rng = SimRng::seed_from_u64(5);
        let mut sm = SecureMatcher::install(MatcherConfig::realistic(), &pattern, key, &mut rng);
        let enc = encrypt_bits(&pattern, key);
        let dist = sm.match_ciphertext(&enc);
        assert!(dist < 0.5, "noisy matched distance {dist}");
    }
}
