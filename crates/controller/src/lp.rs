//! LP relaxation + randomized rounding.
//!
//! The scalable middle ground between `greedy` and the exact solver: the
//! integer program relaxes to a packing LP —
//!
//! ```text
//!   max  Σ (BIG − cost_{d,o}) · x_{d,o}
//!   s.t. Σ_o x_{d,o} ≤ 1                  (one option per demand)
//!        Σ_{d,o} uses(n, d,o) · x ≤ cap_n  (transponder slots per node)
//!        x ≥ 0
//! ```
//!
//! solved by a dense-tableau primal simplex (the slack basis is feasible
//! because this is a pure packing problem), then rounded: sample each
//! demand's option from its fractional mass, greedily repairing capacity
//! violations. The LP optimum also upper-bounds the ILP score, which is
//! how experiment E6 reports optimality gaps without running the exact
//! solver to completion.

use crate::options::ProblemInstance;
use crate::{score, Allocation};
use ofpc_photonics::SimRng;

/// The score weight of satisfying one demand (must dwarf any cost).
const BIG: f64 = 1e9;

/// A solved LP relaxation.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Fractional assignment per demand per option.
    pub(crate) fractional: Vec<Vec<f64>>,
    /// LP objective value — an upper bound on any integer allocation's
    /// score.
    pub upper_bound: f64,
}

/// Solve the LP relaxation with a dense simplex.
#[allow(clippy::needless_range_loop)] // tableau pivoting reads clearest with indices
pub fn solve_lp(instance: &ProblemInstance) -> LpSolution {
    // Variable layout: x_{d,o} flattened.
    let mut var_of: Vec<(usize, usize)> = Vec::new();
    for (d, opts) in instance.options.iter().enumerate() {
        for o in 0..opts.len() {
            var_of.push((d, o));
        }
    }
    let nv = var_of.len();
    if nv == 0 {
        return LpSolution {
            fractional: instance
                .options
                .iter()
                .map(|o| vec![0.0; o.len()])
                .collect(),
            upper_bound: 0.0,
        };
    }
    // Constraints: one per demand with options, one per node with finite
    // capacity actually referenced.
    let n_demands = instance.demand_count();
    let n_nodes = instance.node_slots.len();
    let m = n_demands + n_nodes;
    // Tableau: rows 0..m constraints, last row objective.
    // Columns: nv vars + m slacks + 1 rhs.
    let cols = nv + m + 1;
    let mut t = vec![vec![0.0f64; cols]; m + 1];
    for (j, &(d, o)) in var_of.iter().enumerate() {
        // Demand row.
        t[d][j] = 1.0;
        // Node rows.
        for &node in &instance.options[d][o].placement {
            t[n_demands + node.0 as usize][j] += 1.0;
        }
        // Objective (maximize): z row holds −c.
        t[m][j] = -(BIG - instance.options[d][o].cost);
    }
    for i in 0..m {
        t[i][nv + i] = 1.0; // slack
        t[i][cols - 1] = if i < n_demands {
            1.0
        } else {
            instance.node_slots[i - n_demands] as f64
        };
    }
    // Basis tracking: which variable is basic in each row.
    let mut basis: Vec<usize> = (0..m).map(|i| nv + i).collect();
    let mut pivots = 0u64;
    let max_pivots = 10_000 + 50 * (nv as u64 + m as u64);
    loop {
        // Entering column: most negative objective coefficient
        // (Dantzig); switch to Bland's rule near the pivot cap to
        // guarantee termination.
        let blands = pivots > max_pivots / 2;
        let mut enter = None;
        let mut best = -1e-9;
        for j in 0..nv + m {
            let c = t[m][j];
            if c < best {
                if blands {
                    enter = Some(j);
                    break;
                }
                best = c;
                enter = Some(j);
            }
        }
        let Some(enter) = enter else { break };
        // Ratio test.
        let mut leave = None;
        let mut best_ratio = f64::MAX;
        for i in 0..m {
            if t[i][enter] > 1e-9 {
                let ratio = t[i][cols - 1] / t[i][enter];
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12
                        && leave.is_none_or(|l: usize| basis[l] > basis[i]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            break; // unbounded — cannot happen in a packing LP, bail safely
        };
        // Pivot.
        let pivot = t[leave][enter];
        for v in &mut t[leave] {
            *v /= pivot;
        }
        for i in 0..=m {
            if i != leave && t[i][enter].abs() > 1e-12 {
                let factor = t[i][enter];
                for j in 0..cols {
                    t[i][j] -= factor * t[leave][j];
                }
            }
        }
        basis[leave] = enter;
        pivots += 1;
        if pivots >= max_pivots {
            break;
        }
    }
    // Read out the solution.
    let mut x = vec![0.0f64; nv];
    for (i, &b) in basis.iter().enumerate() {
        if b < nv {
            x[b] = t[i][cols - 1].max(0.0);
        }
    }
    let mut fractional: Vec<Vec<f64>> = instance
        .options
        .iter()
        .map(|opts| vec![0.0; opts.len()])
        .collect();
    for (j, &(d, o)) in var_of.iter().enumerate() {
        fractional[d][o] = x[j].clamp(0.0, 1.0);
    }
    let upper_bound = var_of
        .iter()
        .enumerate()
        .map(|(j, &(d, o))| x[j] * (BIG - instance.options[d][o].cost))
        .sum();
    LpSolution {
        fractional,
        upper_bound,
    }
}

/// Round an LP solution to a feasible integer allocation: sample each
/// demand's option from its fractional mass, repair infeasibility by
/// falling back to the cheapest feasible option, repeat `trials` times,
/// keep the best.
pub fn round_lp(
    instance: &ProblemInstance,
    lp: &LpSolution,
    trials: usize,
    rng: &mut SimRng,
) -> Allocation {
    assert!(trials >= 1, "need at least one rounding trial");
    let n = instance.demand_count();
    let mut best = Allocation {
        choices: vec![None; n],
    };
    let mut best_score = score(instance, &best);
    for _ in 0..trials {
        let mut used = vec![0usize; instance.node_slots.len()];
        let mut choices = vec![None; n];
        // Demand order randomized per trial.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &d in &order {
            // Sample from the fractional distribution.
            let u = rng.uniform();
            let mut acc = 0.0;
            let mut sampled = None;
            for (o, &f) in lp.fractional[d].iter().enumerate() {
                acc += f;
                if u < acc {
                    sampled = Some(o);
                    break;
                }
            }
            // Try the sampled option, then every option cheapest-first.
            let mut candidates: Vec<usize> = Vec::new();
            if let Some(s) = sampled {
                candidates.push(s);
            }
            candidates.extend(0..instance.options[d].len());
            for o in candidates {
                let option = &instance.options[d][o];
                let mut need = std::collections::HashMap::new();
                for &node in &option.placement {
                    *need.entry(node.0 as usize).or_insert(0usize) += 1;
                }
                let fits = need
                    .iter()
                    .all(|(&node, &k)| used[node] + k <= instance.node_slots[node]);
                if fits {
                    for (&node, &k) in &need {
                        used[node] += k;
                    }
                    choices[d] = Some(o);
                    break;
                }
            }
        }
        let alloc = Allocation { choices };
        let s = score(instance, &alloc);
        if s > best_score {
            best_score = s;
            best = alloc;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::solve_exact;
    use crate::is_feasible;
    use crate::options::AllocOption;
    use ofpc_net::NodeId;

    fn opt(nodes: &[u32], cost: f64) -> AllocOption {
        AllocOption {
            placement: nodes.iter().map(|&n| NodeId(n)).collect(),
            cost,
            added_latency_ps: 0,
        }
    }

    #[test]
    fn lp_matches_ilp_on_integral_instance() {
        let inst = ProblemInstance {
            node_slots: vec![2],
            options: vec![vec![opt(&[0], 1.0)], vec![opt(&[0], 2.0)]],
        };
        let lp = solve_lp(&inst);
        let exact = solve_exact(&inst, 1_000_000);
        // Uncontended packing LP has an integral optimum.
        assert!(
            (lp.upper_bound - exact.score).abs() < 1.0,
            "lp {} ilp {}",
            lp.upper_bound,
            exact.score
        );
        // Fractional solution saturates both demands.
        assert!((lp.fractional[0][0] - 1.0).abs() < 1e-6);
        assert!((lp.fractional[1][0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lp_upper_bounds_ilp_under_contention() {
        // One slot, two demands: ILP satisfies 1; LP can split 0.5/0.5
        // and reach ~1 satisfied worth of objective as well.
        let inst = ProblemInstance {
            node_slots: vec![1],
            options: vec![vec![opt(&[0], 1.0)], vec![opt(&[0], 1.0)]],
        };
        let lp = solve_lp(&inst);
        let exact = solve_exact(&inst, 1_000_000);
        assert!(lp.upper_bound >= exact.score - 1e-6);
        // Total fractional mass on the node cannot exceed capacity.
        let mass: f64 = lp.fractional.iter().flatten().sum();
        assert!(mass <= 1.0 + 1e-6, "mass {mass}");
    }

    #[test]
    fn rounding_is_feasible_and_close_to_exact() {
        let mut rng = SimRng::seed_from_u64(3);
        let inst = ProblemInstance {
            node_slots: vec![2, 1, 1],
            options: vec![
                vec![opt(&[0], 1.0), opt(&[1], 1.5)],
                vec![opt(&[0], 1.0), opt(&[2], 2.0)],
                vec![opt(&[1], 1.0), opt(&[0], 1.2)],
                vec![opt(&[2], 1.0)],
            ],
        };
        let lp = solve_lp(&inst);
        let rounded = round_lp(&inst, &lp, 20, &mut rng);
        assert!(is_feasible(&inst, &rounded));
        let exact = solve_exact(&inst, 10_000_000);
        // All four fit; rounding with repair should find that too.
        assert_eq!(exact.allocation.satisfied_count(), 4);
        assert_eq!(rounded.satisfied_count(), 4);
    }

    #[test]
    fn lp_chain_demands_respect_node_caps() {
        let inst = ProblemInstance {
            node_slots: vec![1, 2],
            options: vec![
                vec![opt(&[0, 1], 2.0)],
                vec![opt(&[1], 1.0)],
                vec![opt(&[0], 1.0)],
            ],
        };
        let lp = solve_lp(&inst);
        // Node 0 mass: x0 + x2 ≤ 1.
        let node0 = lp.fractional[0][0] + lp.fractional[2][0];
        assert!(node0 <= 1.0 + 1e-6, "node0 mass {node0}");
        // Node 1 mass: x0 + x1 ≤ 2.
        let node1 = lp.fractional[0][0] + lp.fractional[1][0];
        assert!(node1 <= 2.0 + 1e-6);
    }

    #[test]
    fn empty_instance_is_zero() {
        let inst = ProblemInstance {
            node_slots: vec![1],
            options: vec![],
        };
        let lp = solve_lp(&inst);
        assert_eq!(lp.upper_bound, 0.0);
    }

    #[test]
    fn demand_with_no_options_gets_zero_mass() {
        let inst = ProblemInstance {
            node_slots: vec![1],
            options: vec![vec![], vec![opt(&[0], 1.0)]],
        };
        let lp = solve_lp(&inst);
        assert!(lp.fractional[0].is_empty());
        assert!((lp.fractional[1][0] - 1.0).abs() < 1e-6);
        let mut rng = SimRng::seed_from_u64(0);
        let rounded = round_lp(&inst, &lp, 5, &mut rng);
        assert_eq!(rounded.choices[0], None);
        assert_eq!(rounded.choices[1], Some(0));
    }

    #[test]
    fn lp_scales_beyond_exact_comfort() {
        // 60 demands × 4 options over 12 nodes: trivial for the LP.
        let mut rng = SimRng::seed_from_u64(9);
        let options: Vec<Vec<AllocOption>> = (0..60)
            .map(|_| {
                let mut opts: Vec<AllocOption> = (0..4)
                    .map(|_| opt(&[rng.below(12) as u32], 0.5 + rng.uniform()))
                    .collect();
                opts.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
                opts
            })
            .collect();
        let inst = ProblemInstance {
            node_slots: vec![3; 12],
            options,
        };
        let lp = solve_lp(&inst);
        assert!(lp.upper_bound > 0.0);
        let mut rng2 = SimRng::seed_from_u64(10);
        let rounded = round_lp(&inst, &lp, 10, &mut rng2);
        assert!(is_feasible(&inst, &rounded));
        // Capacity is 36 slots for 60 single-slot demands: at most 36
        // can be satisfied, and a decent rounding gets close.
        assert!(rounded.satisfied_count() <= 36);
        assert!(
            rounded.satisfied_count() >= 30,
            "{}",
            rounded.satisfied_count()
        );
    }
}
