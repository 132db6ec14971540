//! Design-point records and non-dominated-set marking.
//!
//! A sweep evaluates one [`DesignPoint`] per (app, converter, core
//! size, wavelength count) tuple. `mark_pareto` then flags, per app,
//! the points no other point dominates on the three axes the paper's
//! trade-off story turns on: energy per request (lower better), batch
//! latency (lower better), and end-to-end effective bits (higher
//! better). Everything is pure integer/float comparison in a fixed
//! order — the marking is deterministic and worker-count independent.

use serde::Serialize;

/// One evaluated point of the design space.
#[derive(Debug, Clone, Serialize)]
pub struct DesignPoint {
    /// Table-1 app name (`"dnn"`, `"correlation"`, `"pattern-match"`).
    pub app: String,
    /// Converter pairing name from the catalog.
    pub converter: String,
    /// Photonic core size (MVM width / pattern scale unit).
    pub core_size: usize,
    /// WDM channels lit for serving.
    pub wavelengths: usize,
    /// Per-request energy across the lowered plan, J.
    pub energy_per_request_j: f64,
    /// Makespan of the request batch over the plan, ps.
    pub latency_ps: u64,
    /// One-time plan-install (weight write) charge, ps.
    pub(crate) install_ps: u64,
    /// Weakest photonic stage's predicted effective bits; 16.0 for
    /// all-digital plans (digital is exact at modeled precision).
    pub effective_bits: f64,
    pub(crate) photonic_stages: usize,
    pub(crate) digital_stages: usize,
    /// Distinct hardware variants the lowerer bound, first-use order.
    pub(crate) variants_used: Vec<String>,
    /// Module totals from the form-factor budget (catalog parts swapped
    /// into the Fig.-4 block set).
    pub module_power_w: f64,
    pub module_area_mm2: f64,
    /// Whether the module fits the OSFP envelope.
    pub fits_osfp: bool,
    /// On the per-app Pareto frontier (set by `mark_pareto`).
    pub pareto: bool,
}

/// Whether `a` dominates `b`: no worse on all of (energy, latency,
/// bits) and strictly better on at least one. Ties on every axis
/// dominate nothing, so duplicated points both stay on the frontier.
fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    let no_worse = a.energy_per_request_j <= b.energy_per_request_j
        && a.latency_ps <= b.latency_ps
        && a.effective_bits >= b.effective_bits;
    let better = a.energy_per_request_j < b.energy_per_request_j
        || a.latency_ps < b.latency_ps
        || a.effective_bits > b.effective_bits;
    no_worse && better
}

/// Mark each point's `pareto` flag: true iff no other point *of the
/// same app* dominates it. O(n²) over a sweep of dozens of points.
pub(crate) fn mark_pareto(points: &mut [DesignPoint]) {
    for i in 0..points.len() {
        let dominated = points
            .iter()
            .enumerate()
            .any(|(j, a)| j != i && a.app == points[i].app && dominates(a, &points[i]));
        points[i].pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(app: &str, energy: f64, latency: u64, bits: f64) -> DesignPoint {
        DesignPoint {
            app: app.to_string(),
            converter: "cv-test".to_string(),
            core_size: 16,
            wavelengths: 4,
            energy_per_request_j: energy,
            latency_ps: latency,
            install_ps: 0,
            effective_bits: bits,
            photonic_stages: 1,
            digital_stages: 0,
            variants_used: vec![],
            module_power_w: 0.0,
            module_area_mm2: 0.0,
            fits_osfp: true,
            pareto: false,
        }
    }

    #[test]
    fn dominated_point_is_off_the_frontier() {
        let mut pts = vec![
            point("dnn", 1.0, 100, 8.0),
            point("dnn", 2.0, 200, 7.0), // worse everywhere
            point("dnn", 0.5, 300, 6.0), // cheaper but slower+coarser
        ];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto);
        assert!(!pts[1].pareto);
        assert!(pts[2].pareto);
    }

    #[test]
    fn exact_ties_both_stay() {
        let mut pts = vec![point("dnn", 1.0, 100, 8.0), point("dnn", 1.0, 100, 8.0)];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto && pts[1].pareto);
    }

    #[test]
    fn domination_is_scoped_per_app() {
        let mut pts = vec![
            point("dnn", 1.0, 100, 8.0),
            point("correlation", 2.0, 200, 7.0), // dominated only cross-app
        ];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto && pts[1].pareto);
    }

    #[test]
    fn partial_tie_with_one_strict_win_dominates() {
        let mut pts = vec![
            point("dnn", 1.0, 100, 8.0),
            point("dnn", 1.0, 100, 7.5), // equal cost, strictly coarser
        ];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto);
        assert!(!pts[1].pareto);
    }
}
