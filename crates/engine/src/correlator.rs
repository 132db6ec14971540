//! Sliding photonic correlator — signature search over a bit stream.
//!
//! The intrusion-detection use case (Table 1) needs "photonic regular
//! expression matching hardware". The deployable photonic kernel is a
//! *correlator*: slide a P2 pattern matcher over the payload bit stream
//! and report every offset whose Hamming distance falls below a
//! threshold. Exact signature sets (the Snort-style common case) map
//! directly; a tolerance > 0 gives the fuzzy matching that catches
//! polymorphic variants of a signature.

use crate::matcher::{MatcherConfig, PatternMatcher};
use ofpc_photonics::SimRng;

/// Stride in bits between alignments: signatures are byte-aligned.
const STRIDE: usize = 8;

/// A match hit produced by the correlator.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct CorrelationHit {
    /// Bit offset in the stream where the pattern aligns.
    pub offset: usize,
    /// Index of the matched pattern in the signature set.
    pub pattern_index: usize,
    /// Analog distance estimate at the hit.
    pub(crate) distance: f64,
}

/// A photonic sliding correlator over a signature set.
#[derive(Debug)]
pub struct Correlator {
    matcher: PatternMatcher,
    signatures: Vec<Vec<bool>>,
    /// Maximum Hamming distance still reported as a hit.
    pub(crate) tolerance: f64,
}

impl Correlator {
    /// Build a correlator over `signatures` with the given matcher
    /// hardware config. `tolerance` ≤ 0.5 means exact matching.
    pub fn new(
        config: MatcherConfig,
        signatures: Vec<Vec<bool>>,
        tolerance: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            !signatures.is_empty(),
            "correlator needs at least one signature"
        );
        assert!(
            signatures.iter().all(|s| !s.is_empty()),
            "signatures must be non-empty"
        );
        // The matcher's own threshold is not used — the correlator applies
        // its tolerance to the analog estimate directly.
        let mut matcher = PatternMatcher::new(config, rng);
        matcher.calibrate(128);
        Correlator {
            matcher,
            signatures,
            tolerance: tolerance.max(0.0),
        }
    }

    /// Scan a bit stream, returning all hits across all signatures.
    pub fn scan(&mut self, stream: &[bool]) -> Vec<CorrelationHit> {
        let mut hits = Vec::new();
        for pi in 0..self.signatures.len() {
            let pattern = &self.signatures[pi];
            if pattern.len() > stream.len() {
                continue;
            }
            let mut offset = 0;
            while offset + pattern.len() <= stream.len() {
                let window = &stream[offset..offset + pattern.len()];
                let r = self.matcher.match_block(window, pattern);
                if r.distance_estimate <= self.tolerance + 0.5 {
                    hits.push(CorrelationHit {
                        offset,
                        pattern_index: pi,
                        distance: r.distance_estimate,
                    });
                }
                offset += STRIDE;
            }
        }
        hits.sort_by_key(|h| (h.offset, h.pattern_index));
        hits
    }

    /// Wall-clock time to scan `stream_bits` against the signature set,
    /// seconds: each alignment is one optical block.
    pub fn scan_latency_s(&self, stream_bits: usize) -> f64 {
        let mut total = 0.0;
        for pattern in &self.signatures {
            if pattern.len() > stream_bits {
                continue;
            }
            let alignments = (stream_bits - pattern.len()) / STRIDE + 1;
            total += alignments as f64 * self.matcher.latency_s(pattern.len());
        }
        total
    }
}

/// Convert a byte string to a bit vector, MSB first — the encoding used
/// for payload scanning.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ideal-hardware correlator (for algorithmic tests).
    fn ideal(signatures: Vec<Vec<bool>>, tolerance: f64) -> Correlator {
        let mut rng = SimRng::seed_from_u64(0);
        Correlator::new(MatcherConfig::ideal(), signatures, tolerance, &mut rng)
    }

    #[test]
    fn bytes_to_bits_msb_first() {
        assert_eq!(
            bytes_to_bits(&[0b1010_0001]),
            vec![true, false, true, false, false, false, false, true]
        );
        assert_eq!(bytes_to_bits(&[]).len(), 0);
    }

    #[test]
    fn finds_planted_signature() {
        let sig = bytes_to_bits(b"EVIL");
        let mut c = ideal(vec![sig.clone()], 0.0);
        let stream = bytes_to_bits(b"xxxxEVILyyyy");
        let hits = c.scan(&stream);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].offset, 32);
        assert_eq!(hits[0].pattern_index, 0);
    }

    #[test]
    fn clean_stream_has_no_hits() {
        let sig = bytes_to_bits(b"EVIL");
        let mut c = ideal(vec![sig], 0.0);
        let hits = c.scan(&bytes_to_bits(b"perfectly benign payload"));
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn multiple_signatures_and_occurrences() {
        let sigs = vec![bytes_to_bits(b"AB"), bytes_to_bits(b"CD")];
        let mut c = ideal(sigs, 0.0);
        let hits = c.scan(&bytes_to_bits(b"ABxCDxAB"));
        let found: Vec<(usize, usize)> = hits.iter().map(|h| (h.offset, h.pattern_index)).collect();
        assert_eq!(found, vec![(0, 0), (24, 1), (48, 0)]);
    }

    #[test]
    fn tolerance_catches_fuzzed_signature() {
        let sig = bytes_to_bits(b"MALWARE!");
        // Flip two bits of the planted copy.
        let mut stream = bytes_to_bits(b"...MALWARE!...");
        stream[3 * 8 + 5] = !stream[3 * 8 + 5];
        stream[3 * 8 + 13] = !stream[3 * 8 + 13];
        let mut exact = ideal(vec![sig.clone()], 0.0);
        assert!(exact.scan(&stream).is_empty());
        let mut fuzzy = ideal(vec![sig], 2.0);
        let hits = fuzzy.scan(&stream);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].offset, 24);
        assert!((hits[0].distance - 2.0).abs() < 0.2);
    }

    #[test]
    fn pattern_longer_than_stream_is_skipped() {
        let sig = bytes_to_bits(b"LONGPATTERN");
        let mut c = ideal(vec![sig], 0.0);
        assert!(c.scan(&bytes_to_bits(b"hi")).is_empty());
        assert_eq!(c.scan_latency_s(16), 0.0);
    }

    #[test]
    fn latency_scales_with_stream_and_signatures() {
        let sigs = vec![bytes_to_bits(b"AAAA"), bytes_to_bits(b"BBBB")];
        let c = ideal(sigs, 0.0);
        let short = c.scan_latency_s(256);
        let long = c.scan_latency_s(2560);
        assert!(long > 5.0 * short);
    }

    #[test]
    #[should_panic(expected = "at least one signature")]
    fn rejects_empty_signature_set() {
        ideal(vec![], 0.0);
    }
}
