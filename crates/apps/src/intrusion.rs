//! Intrusion detection (Table 1, class C2).
//!
//! Signature scanning over packet payloads: the digital baseline is a
//! from-scratch Aho–Corasick automaton (what Snort-class IDS engines
//! build), the photonic path is the sliding correlator of
//! [`ofpc_engine::correlator`] running at line rate on the optical
//! payload — "photonic regular expression matching hardware" in Table
//! 1's terms, here the exact-and-fuzzy signature subset that maps to
//! interference matching.

use ofpc_engine::correlator::{bytes_to_bits, Correlator};
use ofpc_engine::matcher::MatcherConfig;
use ofpc_photonics::SimRng;
use std::collections::{HashMap, VecDeque};

/// A match reported by either engine: `(byte_offset, signature_index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SigHit {
    pub(crate) offset: usize,
    pub(crate) signature: usize,
}

/// Aho–Corasick multi-pattern matcher (digital baseline).
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// goto[state][byte] — dense next-state table.
    next: Vec<[u32; 256]>,
    /// Output signatures (index, length) per state.
    out: Vec<Vec<(usize, usize)>>,
}

impl AhoCorasick {
    #[allow(clippy::needless_range_loop)] // byte-alphabet tables read clearest with indices
    pub fn new(signatures: &[Vec<u8>]) -> Self {
        assert!(!signatures.is_empty(), "need at least one signature");
        assert!(
            signatures.iter().all(|s| !s.is_empty()),
            "signatures must be non-empty"
        );
        let mut next: Vec<[u32; 256]> = vec![[u32::MAX; 256]];
        let mut out: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        // Build the trie.
        for (si, sig) in signatures.iter().enumerate() {
            let mut state = 0usize;
            for &b in sig {
                let slot = next[state][b as usize];
                state = if slot == u32::MAX {
                    next.push([u32::MAX; 256]);
                    out.push(Vec::new());
                    let new_state = (next.len() - 1) as u32;
                    next[state][b as usize] = new_state;
                    new_state as usize
                } else {
                    slot as usize
                };
            }
            out[state].push((si, sig.len()));
        }
        // BFS fail links, converting to a dense DFA.
        let mut fail = vec![0u32; next.len()];
        let mut queue = VecDeque::new();
        for b in 0..256 {
            let s = next[0][b];
            if s == u32::MAX {
                next[0][b] = 0;
            } else {
                fail[s as usize] = 0;
                queue.push_back(s as usize);
            }
        }
        while let Some(state) = queue.pop_front() {
            let f = fail[state] as usize;
            let inherited: Vec<(usize, usize)> = out[f].clone();
            out[state].extend(inherited);
            for b in 0..256 {
                let s = next[state][b];
                if s == u32::MAX {
                    next[state][b] = next[f][b];
                } else {
                    fail[s as usize] = next[f][b];
                    queue.push_back(s as usize);
                }
            }
        }
        AhoCorasick { next, out }
    }

    /// Scan a payload, reporting every signature occurrence.
    pub fn scan(&self, payload: &[u8]) -> Vec<SigHit> {
        let mut hits = Vec::new();
        let mut state = 0usize;
        for (i, &b) in payload.iter().enumerate() {
            state = self.next[state][b as usize] as usize;
            for &(si, len) in &self.out[state] {
                hits.push(SigHit {
                    offset: i + 1 - len,
                    signature: si,
                });
            }
        }
        hits.sort();
        hits.dedup();
        hits
    }
}

/// Photonic IDS: the engine's sliding correlator over byte-aligned
/// payload bits.
#[derive(Debug)]
pub struct PhotonicIds {
    correlator: Correlator,
}

impl PhotonicIds {
    pub(crate) fn new(signatures: &[Vec<u8>], tolerance_bits: f64, rng: &mut SimRng) -> Self {
        let bit_sigs: Vec<Vec<bool>> = signatures.iter().map(|s| bytes_to_bits(s)).collect();
        PhotonicIds {
            correlator: Correlator::new(MatcherConfig::ideal(), bit_sigs, tolerance_bits, 8, rng),
        }
    }

    pub fn ideal(signatures: &[Vec<u8>]) -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        PhotonicIds::new(signatures, 0.0, &mut rng)
    }

    /// Scan a payload.
    pub fn scan(&mut self, payload: &[u8]) -> Vec<SigHit> {
        let bits = bytes_to_bits(payload);
        let mut hits: Vec<SigHit> = self
            .correlator
            .scan(&bits)
            .into_iter()
            .map(|h| SigHit {
                offset: h.offset / 8,
                signature: h.pattern_index,
            })
            .collect();
        hits.sort();
        hits.dedup();
        hits
    }

    /// Wall-clock scan latency at line rate for a payload of `bytes`.
    pub fn scan_latency_s(&self, bytes: usize) -> f64 {
        self.correlator.scan_latency_s(bytes * 8)
    }
}

/// Synthesize traffic: `n` payloads of `len` bytes; a `plant_rate`
/// fraction get a random signature planted at a random offset. Returns
/// payloads plus ground truth hits.
pub fn synthesize_traffic(
    n: usize,
    len: usize,
    signatures: &[Vec<u8>],
    plant_rate: f64,
    rng: &mut SimRng,
) -> (Vec<Vec<u8>>, HashMap<usize, Vec<SigHit>>) {
    assert!(!signatures.is_empty(), "need signatures to plant");
    let mut payloads = Vec::with_capacity(n);
    let mut truth: HashMap<usize, Vec<SigHit>> = HashMap::new();
    for p in 0..n {
        // Base payload avoids accidental ASCII signature collisions by
        // drawing from bytes 128..=255.
        let mut payload: Vec<u8> = (0..len).map(|_| 128 + (rng.below(128) as u8)).collect();
        if rng.chance(plant_rate) {
            let si = rng.below(signatures.len());
            let sig = &signatures[si];
            if sig.len() <= len {
                let off = rng.below(len - sig.len() + 1);
                payload[off..off + sig.len()].copy_from_slice(sig);
                truth.entry(p).or_default().push(SigHit {
                    offset: off,
                    signature: si,
                });
            }
        }
        payloads.push(payload);
    }
    (payloads, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs() -> Vec<Vec<u8>> {
        vec![b"ATTACK".to_vec(), b"EVIL".to_vec(), b"ROOTKIT".to_vec()]
    }

    #[test]
    fn aho_corasick_finds_all_occurrences() {
        let ac = AhoCorasick::new(&sigs());
        let hits = ac.scan(b"xxATTACKyyEVILzzATTACK");
        assert_eq!(
            hits,
            vec![
                SigHit {
                    offset: 2,
                    signature: 0
                },
                SigHit {
                    offset: 10,
                    signature: 1
                },
                SigHit {
                    offset: 16,
                    signature: 0
                },
            ]
        );
    }

    #[test]
    fn aho_corasick_overlapping_signatures() {
        // "HE" inside "SHE"; "HERS" shares a prefix path.
        let sigs = vec![b"HE".to_vec(), b"SHE".to_vec(), b"HERS".to_vec()];
        let ac = AhoCorasick::new(&sigs);
        let hits = ac.scan(b"USHERS");
        let expect: Vec<SigHit> = vec![
            SigHit {
                offset: 1,
                signature: 1,
            }, // SHE @1
            SigHit {
                offset: 2,
                signature: 0,
            }, // HE @2
            SigHit {
                offset: 2,
                signature: 2,
            }, // HERS @2
        ];
        assert_eq!(hits, expect);
    }

    #[test]
    fn clean_payload_has_no_hits() {
        let ac = AhoCorasick::new(&sigs());
        assert!(ac.scan(b"perfectly normal traffic").is_empty());
    }

    #[test]
    fn photonic_ids_matches_aho_corasick() {
        let mut rng = SimRng::seed_from_u64(1);
        let signatures = sigs();
        let (payloads, _) = synthesize_traffic(12, 48, &signatures, 0.7, &mut rng);
        let ac = AhoCorasick::new(&signatures);
        let mut ids = PhotonicIds::ideal(&signatures);
        for p in &payloads {
            assert_eq!(ids.scan(p), ac.scan(p), "payload {p:?}");
        }
    }

    #[test]
    fn ground_truth_is_detected() {
        let mut rng = SimRng::seed_from_u64(2);
        let signatures = sigs();
        let (payloads, truth) = synthesize_traffic(20, 64, &signatures, 0.5, &mut rng);
        let mut ids = PhotonicIds::ideal(&signatures);
        for (p, payload) in payloads.iter().enumerate() {
            let hits = ids.scan(payload);
            if let Some(expected) = truth.get(&p) {
                for e in expected {
                    assert!(hits.contains(e), "missed {e:?} in payload {p}");
                }
            }
        }
    }

    #[test]
    fn photonic_latency_scales_with_payload() {
        let ids = PhotonicIds::ideal(&sigs());
        assert!(ids.scan_latency_s(1500) > ids.scan_latency_s(64));
    }

    #[test]
    fn automaton_size_is_sum_of_lengths_plus_root() {
        let ac = AhoCorasick::new(&sigs());
        // Disjoint signatures: states = 1 + Σ|sig|.
        assert_eq!(ac.next.len(), 1 + 6 + 4 + 7);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_signature_set_panics() {
        AhoCorasick::new(&[]);
    }
}
