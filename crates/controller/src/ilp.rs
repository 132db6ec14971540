//! Exact integer allocation by branch and bound.
//!
//! The paper's §5: "The optimization formulation is fundamentally an
//! integer problem because it needs to decide which photonic computing
//! transponder to use." This module solves that integer problem exactly:
//! depth-first branch and bound over per-demand option choices with
//! per-node slot capacities, pruning on an optimistic bound (every
//! remaining demand satisfiable at its cheapest option, capacities
//! ignored). Exponential in the worst case — which is the point:
//! experiment E6 measures exactly where this wall is, motivating the LP
//! and greedy fallbacks.

use crate::options::ProblemInstance;
use crate::{score, Allocation};

/// Solver report: the best allocation plus search statistics.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    pub allocation: Allocation,
    pub score: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes_expanded: u64,
    /// True if the search finished; false if it hit `node_budget` and the
    /// result is best-effort.
    pub proven_optimal: bool,
}

/// Solve the allocation exactly (up to `node_budget` search nodes).
pub fn solve_exact(instance: &ProblemInstance, node_budget: u64) -> ExactSolution {
    let n = instance.demand_count();
    let mut state = Search {
        instance,
        used: vec![0; instance.node_slots.len()],
        choices: vec![None; n],
        best: Allocation {
            choices: vec![None; n],
        },
        best_score: 0.0,
        nodes: 0,
        budget: node_budget,
        // Cheapest option cost per demand, for the optimistic bound.
        min_cost: instance
            .options
            .iter()
            .map(|opts| opts.iter().map(|o| o.cost).fold(f64::MAX, f64::min))
            .collect(),
    };
    state.best_score = score(instance, &state.best);
    state.dfs(0, 0, 0.0);
    let proven = state.nodes < node_budget;
    ExactSolution {
        score: state.best_score,
        allocation: state.best,
        nodes_expanded: state.nodes,
        proven_optimal: proven,
    }
}

struct Search<'a> {
    instance: &'a ProblemInstance,
    used: Vec<usize>,
    choices: Vec<Option<usize>>,
    best: Allocation,
    best_score: f64,
    nodes: u64,
    budget: u64,
    min_cost: Vec<f64>,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize, satisfied: usize, cost: f64) {
        if self.nodes >= self.budget {
            return;
        }
        self.nodes += 1;
        let n = self.instance.demand_count();
        if depth == n {
            let s = satisfied as f64 * 1e9 - cost;
            if s > self.best_score {
                self.best_score = s;
                self.best = Allocation {
                    choices: self.choices.clone(),
                };
            }
            return;
        }
        // Optimistic bound: all remaining demands satisfied at their
        // cheapest option (capacity ignored).
        let mut bound = (satisfied + (n - depth)) as f64 * 1e9 - cost;
        for d in depth..n {
            if self.min_cost[d].is_finite() && self.min_cost[d] != f64::MAX {
                bound -= self.min_cost[d];
            } else {
                bound -= 1e9; // demand with no options can never be served
            }
        }
        if bound <= self.best_score {
            return;
        }
        // Branch: try each feasible option (cheapest first — the option
        // lists are pre-sorted), then the "skip" branch.
        for o in 0..self.instance.options[depth].len() {
            let option = &self.instance.options[depth][o];
            if self.fits(option) {
                self.apply(option, 1);
                self.choices[depth] = Some(o);
                self.dfs(depth + 1, satisfied + 1, cost + option.cost);
                self.choices[depth] = None;
                self.apply(option, -1);
            }
        }
        self.dfs(depth + 1, satisfied, cost);
    }

    fn fits(&self, option: &crate::options::AllocOption) -> bool {
        let mut need = std::collections::HashMap::new();
        for &node in &option.placement {
            *need.entry(node.0 as usize).or_insert(0usize) += 1;
        }
        need.iter()
            .all(|(&n, &k)| self.used[n] + k <= self.instance.node_slots[n])
    }

    fn apply(&mut self, option: &crate::options::AllocOption, sign: i64) {
        for &node in &option.placement {
            let slot = &mut self.used[node.0 as usize];
            *slot = (*slot as i64 + sign) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn satisfies_all_when_capacity_allows() {
        let inst = ProblemInstance {
            node_slots: vec![2],
            options: vec![vec![opt(&[0], 1.0)], vec![opt(&[0], 1.0)]],
        };
        let sol = solve_exact(&inst, 1_000_000);
        assert_eq!(sol.allocation.satisfied_count(), 2);
        assert!(sol.proven_optimal);
        assert!(is_feasible(&inst, &sol.allocation));
    }

    #[test]
    fn contention_picks_the_cheaper_demand_set() {
        // One slot, two demands; the solver must satisfy exactly one,
        // choosing the cheaper option overall.
        let inst = ProblemInstance {
            node_slots: vec![1],
            options: vec![vec![opt(&[0], 5.0)], vec![opt(&[0], 1.0)]],
        };
        let sol = solve_exact(&inst, 1_000_000);
        assert_eq!(sol.allocation.satisfied_count(), 1);
        assert_eq!(sol.allocation.choices[1], Some(0));
        assert_eq!(sol.allocation.choices[0], None);
    }

    #[test]
    fn prefers_alternate_sites_to_skipping() {
        // Demand 0 can use node 0 or node 1; demand 1 only node 0.
        // Optimal: d0 → node 1, d1 → node 0 (both satisfied).
        let inst = ProblemInstance {
            node_slots: vec![1, 1],
            options: vec![vec![opt(&[0], 1.0), opt(&[1], 2.0)], vec![opt(&[0], 1.0)]],
        };
        let sol = solve_exact(&inst, 1_000_000);
        assert_eq!(sol.allocation.satisfied_count(), 2);
        assert_eq!(sol.allocation.choices[0], Some(1));
        assert_eq!(sol.allocation.choices[1], Some(0));
    }

    #[test]
    fn chain_demands_consume_multiple_slots() {
        let inst = ProblemInstance {
            node_slots: vec![1, 1],
            options: vec![
                vec![opt(&[0, 1], 2.0)], // needs both nodes
                vec![opt(&[1], 1.0)],
            ],
        };
        let sol = solve_exact(&inst, 1_000_000);
        // Either the chain or the single — not both (node 1 conflict).
        assert_eq!(sol.allocation.satisfied_count(), 1);
        assert!(is_feasible(&inst, &sol.allocation));
    }

    #[test]
    fn unservable_demand_is_skipped() {
        let inst = ProblemInstance {
            node_slots: vec![1],
            options: vec![vec![], vec![opt(&[0], 1.0)]],
        };
        let sol = solve_exact(&inst, 1_000_000);
        assert_eq!(sol.allocation.choices[0], None);
        assert_eq!(sol.allocation.choices[1], Some(0));
        assert!(sol.proven_optimal);
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        // A larger instance with a tiny budget still returns something
        // feasible, just not proven optimal.
        let inst = ProblemInstance {
            node_slots: vec![3; 6],
            options: (0..12)
                .map(|d| {
                    (0..6)
                        .map(|n| opt(&[n as u32], 1.0 + d as f64 * 0.1))
                        .collect()
                })
                .collect(),
        };
        let sol = solve_exact(&inst, 50);
        assert!(!sol.proven_optimal);
        assert!(is_feasible(&inst, &sol.allocation));
        let full = solve_exact(&inst, 10_000_000);
        assert!(full.score >= sol.score);
    }

    #[test]
    fn empty_instance_is_trivial() {
        let inst = ProblemInstance {
            node_slots: vec![1],
            options: vec![],
        };
        let sol = solve_exact(&inst, 100);
        assert_eq!(sol.allocation.satisfied_count(), 0);
        assert!(sol.proven_optimal);
    }
}
