//! IP routing via photonic ternary matching (Table 1, class C2).
//!
//! Longest-prefix match is what TCAMs burn watts on ("Current
//! bottleneck: power hungry"); the photonic alternative is the ternary
//! matcher of Fig. 2b with wildcards: each rule's prefix becomes a
//! ternary pattern (`1010****`), the engine matches the destination
//! address against all rules, and the longest matching prefix wins.
//!
//! This module provides the rule compiler, a digital TCAM model with a
//! published-class per-lookup energy, and the photonic LPM engine built
//! on [`ofpc_engine::ternary::TernaryMatcher`].

use ofpc_engine::ternary::{Tern, TernaryMatcher};
use ofpc_net::{Addr, Prefix};
use ofpc_photonics::SimRng;

/// One forwarding rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub(crate) prefix: Prefix,
    pub(crate) port: u16,
}

/// Convert an address to its 32 bits, MSB first.
pub(crate) fn addr_bits(addr: Addr) -> Vec<bool> {
    (0..32).rev().map(|i| (addr.0 >> i) & 1 == 1).collect()
}

/// Compile a prefix to a ternary pattern: `len` literal bits then
/// wildcards.
pub(crate) fn prefix_pattern(prefix: Prefix) -> Vec<Tern> {
    let bits = addr_bits(prefix.network());
    (0..32)
        .map(|i| {
            if (i as u8) < prefix.len() {
                if bits[i] {
                    Tern::One
                } else {
                    Tern::Zero
                }
            } else {
                Tern::Wild
            }
        })
        .collect()
}

/// Energy per TCAM bitcell per search, J.
const TCAM_ENERGY_PER_BIT_SEARCH_J: f64 = 10e-15;

/// Digital TCAM model: exact LPM plus an energy meter. A 32-bit TCAM
/// search charges every stored entry in parallel — that is the "power
/// hungry" bottleneck (order 10 fJ per bit per search in modern TCAMs).
#[derive(Debug, Clone)]
pub struct TcamModel {
    rules: Vec<Rule>,
    pub(crate) lookups: u64,
}

impl TcamModel {
    pub fn new(mut rules: Vec<Rule>) -> Self {
        // TCAM priority = longest prefix first.
        rules.sort_by_key(|r| std::cmp::Reverse(r.prefix.len()));
        TcamModel { rules, lookups: 0 }
    }

    /// LPM lookup.
    pub fn lookup(&mut self, addr: Addr) -> Option<u16> {
        self.lookups += 1;
        self.rules
            .iter()
            .find(|r| r.prefix.contains(addr))
            .map(|r| r.port)
    }

    /// Total search energy so far, J.
    pub fn energy_j(&self) -> f64 {
        self.lookups as f64 * self.rules.len() as f64 * 32.0 * TCAM_ENERGY_PER_BIT_SEARCH_J
    }
}

/// Photonic LPM engine: one ternary pattern per rule, matched optically;
/// the longest matching prefix wins (ties by insertion order of equal
/// lengths — same as TCAM priority).
#[derive(Debug)]
pub struct PhotonicLpm {
    matcher: TernaryMatcher,
    rules: Vec<(Rule, Vec<Tern>)>,
}

impl PhotonicLpm {
    pub fn ideal(mut rules: Vec<Rule>) -> Self {
        rules.sort_by_key(|r| std::cmp::Reverse(r.prefix.len()));
        let compiled = rules
            .into_iter()
            .map(|r| {
                let p = prefix_pattern(r.prefix);
                (r, p)
            })
            .collect();
        PhotonicLpm {
            matcher: TernaryMatcher::ideal(),
            rules: compiled,
        }
    }

    /// Photonic LPM lookup: match rules longest-first, first hit wins.
    pub fn lookup(&mut self, addr: Addr) -> Option<u16> {
        let bits = addr_bits(addr);
        let matcher = &mut self.matcher;
        self.rules
            .iter()
            .find(|(_, pattern)| matcher.match_block(&bits, pattern).matched)
            .map(|(rule, _)| rule.port)
    }
}

/// A deterministic random rule table: `n` prefixes of assorted lengths
/// over `10.0.0.0/8`, each with a port.
pub fn random_rules(n: usize, rng: &mut SimRng) -> Vec<Rule> {
    assert!(n >= 1, "need at least one rule");
    let mut rules = Vec::with_capacity(n);
    // Always include a default-ish /8 so every address resolves.
    rules.push(Rule {
        prefix: "10.0.0.0/8".parse().unwrap(),
        port: 0,
    });
    for i in 1..n {
        let len = 9 + rng.below(16) as u8; // /9../24
        let addr = Addr(0x0A00_0000 | (rng.next_u64() as u32 & 0x00FF_FFFF));
        rules.push(Rule {
            prefix: Prefix::new(addr, len),
            port: i as u16,
        });
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_basic() -> Vec<Rule> {
        vec![
            Rule {
                prefix: "10.0.0.0/8".parse().unwrap(),
                port: 1,
            },
            Rule {
                prefix: "10.1.0.0/16".parse().unwrap(),
                port: 2,
            },
            Rule {
                prefix: "10.1.2.0/24".parse().unwrap(),
                port: 3,
            },
        ]
    }

    #[test]
    fn addr_bits_msb_first() {
        let bits = addr_bits(Addr::new(128, 0, 0, 1));
        assert!(bits[0]);
        assert!(bits[31]);
        assert!(!bits[1]);
        assert_eq!(bits.len(), 32);
    }

    #[test]
    fn prefix_pattern_shape() {
        let p = prefix_pattern("10.0.0.0/8".parse().unwrap());
        assert_eq!(p.len(), 32);
        assert_eq!(p.iter().filter(|&&t| t == Tern::Wild).count(), 24);
        // 10 = 00001010.
        assert_eq!(p[4], Tern::One);
        assert_eq!(p[6], Tern::One);
        assert_eq!(p[7], Tern::Zero);
    }

    #[test]
    fn tcam_longest_prefix_wins() {
        let mut tcam = TcamModel::new(rules_basic());
        assert_eq!(tcam.lookup("10.1.2.3".parse().unwrap()), Some(3));
        assert_eq!(tcam.lookup("10.1.9.9".parse().unwrap()), Some(2));
        assert_eq!(tcam.lookup("10.9.9.9".parse().unwrap()), Some(1));
        assert_eq!(tcam.lookup("11.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn photonic_lpm_agrees_with_tcam() {
        let mut tcam = TcamModel::new(rules_basic());
        let mut plpm = PhotonicLpm::ideal(rules_basic());
        for addr in ["10.1.2.3", "10.1.9.9", "10.9.9.9", "11.0.0.1", "10.1.2.255"] {
            let a: Addr = addr.parse().unwrap();
            assert_eq!(plpm.lookup(a), tcam.lookup(a), "addr {addr}");
        }
    }

    #[test]
    fn photonic_lpm_agrees_on_random_tables() {
        let mut rng = SimRng::seed_from_u64(5);
        let rules = random_rules(24, &mut rng);
        let mut tcam = TcamModel::new(rules.clone());
        let mut plpm = PhotonicLpm::ideal(rules);
        for _ in 0..40 {
            let a = Addr(0x0A00_0000 | (rng.next_u64() as u32 & 0x00FF_FFFF));
            assert_eq!(plpm.lookup(a), tcam.lookup(a), "addr {a}");
        }
    }

    #[test]
    fn tcam_energy_scales_with_table_and_lookups() {
        let mut small = TcamModel::new(rules_basic());
        let mut rng = SimRng::seed_from_u64(6);
        let mut big = TcamModel::new(random_rules(100, &mut rng));
        let a: Addr = "10.1.2.3".parse().unwrap();
        small.lookup(a);
        big.lookup(a);
        assert!(big.energy_j() > 10.0 * small.energy_j());
        let one = big.energy_j();
        big.lookup(a);
        assert!((big.energy_j() - 2.0 * one).abs() < 1e-24);
    }

    #[test]
    fn default_route_rule_catches_everything() {
        let rules = vec![Rule {
            prefix: Prefix::default_route(),
            port: 9,
        }];
        let mut plpm = PhotonicLpm::ideal(rules);
        assert_eq!(plpm.lookup("1.2.3.4".parse().unwrap()), Some(9));
        assert_eq!(plpm.lookup("255.255.255.255".parse().unwrap()), Some(9));
    }
}
