//! Fault storms: seeded bursts of *correlated* failures.
//!
//! The MTBF/MTTR generator in [`crate::plan`] models independent
//! renewal processes — realistic for steady-state availability, but the
//! events that actually take serving systems down are correlated:
//! a backhoe severs a conduit carrying several fibers, a power sag
//! flaps every engine in a hut, an amplifier chain drifts as a unit.
//! A [`StormSpec`] generates exactly that shape: `bursts` clusters of
//! fiber cuts (each burst draws `cuts_per_burst` distinct links, spread
//! over a short `burst_jitter_ps` window), optional engine hard-fails
//! riding the same bursts, and a slow analog drift ramp underneath.
//!
//! Storms are plain [`FaultPlan`]s: injectable into the packet
//! simulator via [`crate::inject()`], convertible to serve-level events,
//! and byte-identically replayable — the E18 harness runs the *same*
//! storm against unprotected, replica, and parity configurations.

use crate::plan::{FaultEvent, FaultKind, FaultPlan};
use ofpc_net::{LinkId, NodeId};
use ofpc_photonics::SimRng;
use serde::Serialize;

/// Shape of one seeded fault storm.
#[derive(Debug, Clone, Serialize)]
pub struct StormSpec {
    /// Number of correlated-cut bursts over the horizon.
    pub bursts: usize,
    /// Fiber cuts per burst (distinct links, ≤ the link population).
    pub cuts_per_burst: usize,
    /// Spread of cut instants within one burst, ps (0 = simultaneous).
    pub burst_jitter_ps: u64,
    /// Time from each cut to its splice (link restore), ps.
    pub cut_down_ps: u64,
    /// Engine hard-fails per burst (distinct sites; 0 disables).
    pub engines_per_burst: usize,
    /// Time from each engine fail to its repair, ps.
    pub engine_down_ps: u64,
    /// Analog drift underneath the storm: per-site noise-sigma rungs
    /// stepped evenly across the horizon (empty disables).
    pub drift_sigmas: Vec<f64>,
}

impl StormSpec {
    /// A storm sized for serving-scale (µs–ms) horizons: repeated
    /// two-cut bursts with brief outages and a mild drift ramp.
    pub fn serving_default() -> Self {
        StormSpec {
            bursts: 4,
            cuts_per_burst: 2,
            burst_jitter_ps: 60_000_000, // 60 µs spread within a burst
            cut_down_ps: 150_000_000,    // 150 µs to splice
            engines_per_burst: 1,
            engine_down_ps: 100_000_000, // 100 µs to reboot
            drift_sigmas: vec![0.002, 0.005, 0.01],
        }
    }
}

/// Generate a seeded fault storm over `[0, horizon_ps)`: bursts are
/// evenly spaced, and within each burst the affected links/sites and
/// their jittered instants are drawn from `rng`. Deterministic for a
/// given RNG state; the returned plan is time-sorted like any other.
pub fn generate_storm(
    links: &[LinkId],
    sites: &[NodeId],
    horizon_ps: u64,
    spec: &StormSpec,
    rng: &mut SimRng,
) -> FaultPlan {
    assert!(!links.is_empty(), "storm needs a link population");
    assert!(spec.bursts >= 1, "storm needs at least one burst");
    let mut plan = FaultPlan::new();
    let spacing = horizon_ps / (spec.bursts as u64 + 1);
    for b in 0..spec.bursts {
        let burst_at = spacing * (b as u64 + 1);
        // Draw distinct links for this burst's correlated cuts.
        let mut pool: Vec<LinkId> = links.to_vec();
        let cuts = spec.cuts_per_burst.min(pool.len());
        for _ in 0..cuts {
            let idx = rng.below(pool.len());
            let link = pool.swap_remove(idx);
            let jitter = if spec.burst_jitter_ps > 0 {
                (rng.uniform() * spec.burst_jitter_ps as f64) as u64
            } else {
                0
            };
            let at_ps = burst_at + jitter;
            plan.push(FaultEvent {
                at_ps,
                kind: FaultKind::FiberCut { link },
            });
            plan.push(FaultEvent {
                at_ps: at_ps.saturating_add(spec.cut_down_ps),
                kind: FaultKind::LinkRestore { link },
            });
        }
        // Engine hard-fails riding the same burst.
        let mut site_pool: Vec<NodeId> = sites.to_vec();
        let fails = spec.engines_per_burst.min(site_pool.len());
        for _ in 0..fails {
            let idx = rng.below(site_pool.len());
            let node = site_pool.swap_remove(idx);
            let jitter = if spec.burst_jitter_ps > 0 {
                (rng.uniform() * spec.burst_jitter_ps as f64) as u64
            } else {
                0
            };
            let at_ps = burst_at + jitter;
            plan.push(FaultEvent {
                at_ps,
                kind: FaultKind::EngineFail { node },
            });
            plan.push(FaultEvent {
                at_ps: at_ps.saturating_add(spec.engine_down_ps),
                kind: FaultKind::EngineRepair { node },
            });
        }
    }
    // Slow drift underneath: every site steps through the sigma ramp.
    if !spec.drift_sigmas.is_empty() {
        let step = horizon_ps / (spec.drift_sigmas.len() as u64 + 1);
        for &node in sites {
            for (i, &sigma) in spec.drift_sigmas.iter().enumerate() {
                plan.push(FaultEvent {
                    at_ps: step * (i as u64 + 1),
                    kind: FaultKind::NoiseStep { node, sigma },
                });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> (Vec<LinkId>, Vec<NodeId>) {
        (
            (0..6).map(LinkId).collect(),
            vec![NodeId(1), NodeId(2), NodeId(3)],
        )
    }

    #[test]
    fn storm_is_deterministic_and_time_sorted() {
        let (links, sites) = pop();
        let build = || {
            let mut rng = SimRng::seed_from_u64(99);
            generate_storm(
                &links,
                &sites,
                1_000_000_000,
                &StormSpec::serving_default(),
                &mut rng,
            )
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.events.windows(2).all(|w| w[0].at_ps <= w[1].at_ps));
    }

    #[test]
    fn bursts_cut_distinct_links_and_restore_each() {
        let (links, sites) = pop();
        let mut rng = SimRng::seed_from_u64(7);
        let spec = StormSpec {
            bursts: 3,
            cuts_per_burst: 2,
            burst_jitter_ps: 1_000,
            cut_down_ps: 50_000,
            engines_per_burst: 1,
            engine_down_ps: 40_000,
            drift_sigmas: vec![0.01],
        };
        let plan = generate_storm(&links, &sites, 10_000_000, &spec, &mut rng);
        let cuts: Vec<LinkId> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::FiberCut { link } => Some(link),
                _ => None,
            })
            .collect();
        let restores = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkRestore { .. }))
            .count();
        assert_eq!(cuts.len(), 6, "3 bursts × 2 cuts");
        assert_eq!(restores, 6, "every cut is spliced");
        // Within each burst the two cut links differ.
        for burst in cuts.chunks(2) {
            assert_ne!(burst[0], burst[1]);
        }
        // Engine fails and drift ride along.
        assert_eq!(
            plan.events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::EngineFail { .. }))
                .count(),
            3
        );
        assert_eq!(
            plan.events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::NoiseStep { .. }))
                .count(),
            3,
            "one rung per site"
        );
        assert_eq!(plan.fault_count(), 9);
    }

    #[test]
    fn oversized_burst_clamps_to_population() {
        let mut rng = SimRng::seed_from_u64(3);
        let spec = StormSpec {
            bursts: 1,
            cuts_per_burst: 99,
            burst_jitter_ps: 0,
            cut_down_ps: 10,
            engines_per_burst: 99,
            engine_down_ps: 10,
            drift_sigmas: Vec::new(),
        };
        let plan = generate_storm(
            &[LinkId(0), LinkId(1)],
            &[NodeId(5)],
            1_000,
            &spec,
            &mut rng,
        );
        assert_eq!(plan.fault_count(), 3, "2 links + 1 site");
    }
}
