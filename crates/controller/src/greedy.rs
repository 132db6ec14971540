//! Greedy allocation baseline.
//!
//! The scalable fallback the paper's §5 implies: demands sorted by how
//! constrained they are (fewest options first), each taking its cheapest
//! still-feasible option. Linear in total options; no optimality
//! guarantee — experiment E6 measures its gap against the exact solver.

use crate::options::ProblemInstance;
use crate::Allocation;

/// Greedy allocation report.
#[derive(Debug, Clone)]
pub struct GreedySolution {
    pub allocation: Allocation,
    pub score: f64,
}

/// Run the greedy allocator.
pub fn solve_greedy(instance: &ProblemInstance) -> GreedySolution {
    let n = instance.demand_count();
    let mut order: Vec<usize> = (0..n).collect();
    // Most-constrained demand first; ties by index for determinism.
    order.sort_by_key(|&d| (instance.options[d].len(), d));
    let mut used = vec![0usize; instance.node_slots.len()];
    let mut choices = vec![None; n];
    for d in order {
        for (o, option) in instance.options[d].iter().enumerate() {
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
    let allocation = Allocation { choices };
    let score = crate::score(instance, &allocation);
    GreedySolution { allocation, score }
}

/// Greedy allocation in **demand order** (index order, not
/// most-constrained-first). This is the discipline the sharded
/// incremental controller uses: because demand `i`'s decision depends
/// only on demands `< i`, a new arrival (which always carries the
/// highest id) is a pure O(options) append, and a departure re-runs
/// only the suffix after the departed demand — neither requires
/// touching earlier decisions. The price is losing the
/// most-constrained-first heuristic; E20 bounds the resulting quality
/// gap against [`solve_greedy`] and the exact solver.
pub fn solve_greedy_ordered(instance: &ProblemInstance) -> GreedySolution {
    let mut used = vec![0usize; instance.node_slots.len()];
    let mut choices = vec![None; instance.demand_count()];
    for (d, options) in instance.options.iter().enumerate() {
        for (o, option) in options.iter().enumerate() {
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
    let allocation = Allocation { choices };
    let score = crate::score(instance, &allocation);
    GreedySolution { allocation, score }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::solve_exact;
    use crate::is_feasible;
    use crate::options::AllocOption;
    use ofpc_net::NodeId;
    use ofpc_photonics::SimRng;

    fn opt(nodes: &[u32], cost: f64) -> AllocOption {
        AllocOption {
            placement: nodes.iter().map(|&n| NodeId(n)).collect(),
            cost,
            added_latency_ps: 0,
        }
    }

    #[test]
    fn satisfies_when_uncontended() {
        let inst = ProblemInstance {
            node_slots: vec![4],
            options: vec![vec![opt(&[0], 1.0)]; 4],
        };
        let sol = solve_greedy(&inst);
        assert_eq!(sol.allocation.satisfied_count(), 4);
        assert!(is_feasible(&inst, &sol.allocation));
    }

    #[test]
    fn most_constrained_first_avoids_starvation() {
        // Demand 0 has two choices, demand 1 only one. Greedy must serve
        // demand 1 first so both fit.
        let inst = ProblemInstance {
            node_slots: vec![1, 1],
            options: vec![vec![opt(&[0], 1.0), opt(&[1], 2.0)], vec![opt(&[0], 1.0)]],
        };
        let sol = solve_greedy(&inst);
        assert_eq!(sol.allocation.satisfied_count(), 2);
    }

    #[test]
    fn greedy_is_never_better_than_exact() {
        let mut rng = SimRng::seed_from_u64(7);
        for trial in 0..20 {
            let nodes = 4;
            let slots = vec![2usize; nodes];
            let demands = 6;
            let options: Vec<Vec<AllocOption>> = (0..demands)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let k = 1 + rng.below(2);
                            let placement: Vec<u32> =
                                (0..k).map(|_| rng.below(nodes) as u32).collect();
                            opt(&placement, 0.5 + rng.uniform() * 3.0)
                        })
                        .collect()
                })
                .collect();
            let mut options = options;
            for opts in &mut options {
                opts.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
            }
            let inst = ProblemInstance {
                node_slots: slots,
                options,
            };
            let greedy = solve_greedy(&inst);
            let exact = solve_exact(&inst, 10_000_000);
            assert!(
                exact.score >= greedy.score - 1e-9,
                "trial {trial}: exact {} < greedy {}",
                exact.score,
                greedy.score
            );
            assert!(is_feasible(&inst, &greedy.allocation));
        }
    }

    #[test]
    fn greedy_can_be_suboptimal() {
        // The canonical trap: both demands have equal option counts, so
        // order falls back to index. Demand 0 grabs node 0 (its cheap
        // option), starving demand 1 which *only* fits on node 0 among
        // remaining capacity. Exact search satisfies both.
        let inst = ProblemInstance {
            node_slots: vec![1, 1],
            options: vec![
                vec![opt(&[0], 1.0), opt(&[1], 1.5)],
                vec![opt(&[0], 1.0), opt(&[0], 1.2)],
            ],
        };
        let greedy = solve_greedy(&inst);
        let exact = solve_exact(&inst, 1_000_000);
        assert_eq!(exact.allocation.satisfied_count(), 2);
        assert!(greedy.allocation.satisfied_count() <= 2);
        assert!(exact.score >= greedy.score);
    }

    #[test]
    fn ordered_greedy_is_prefix_stable() {
        // The property the incremental controller leans on: solving a
        // prefix of the demand list yields exactly the prefix of the
        // full solution, so appending a demand never disturbs earlier
        // choices.
        let mut rng = SimRng::seed_from_u64(11);
        let nodes = 3;
        let options: Vec<Vec<AllocOption>> = (0..8)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        let placement = vec![rng.below(nodes) as u32];
                        opt(&placement, 0.5 + rng.uniform())
                    })
                    .collect()
            })
            .collect();
        let full = ProblemInstance {
            node_slots: vec![2; nodes],
            options: options.clone(),
        };
        let full_sol = solve_greedy_ordered(&full);
        for k in 0..=options.len() {
            let prefix = ProblemInstance {
                node_slots: vec![2; nodes],
                options: options[..k].to_vec(),
            };
            let prefix_sol = solve_greedy_ordered(&prefix);
            assert_eq!(
                prefix_sol.allocation.choices,
                full_sol.allocation.choices[..k],
                "prefix {k} diverged"
            );
        }
        assert!(is_feasible(&full, &full_sol.allocation));
    }

    #[test]
    fn ordered_greedy_can_trail_most_constrained_first() {
        // Demand 0 has two choices, demand 1 only one: id order lets
        // demand 0 starve demand 1, which most-constrained-first avoids.
        let inst = ProblemInstance {
            node_slots: vec![1, 1],
            options: vec![vec![opt(&[0], 1.0), opt(&[1], 2.0)], vec![opt(&[0], 1.0)]],
        };
        assert_eq!(solve_greedy(&inst).allocation.satisfied_count(), 2);
        // Id order: demand 0 grabs node 0 (its cheap option), starving
        // demand 1 — the quality gap E20 measures and bounds.
        let ordered = solve_greedy_ordered(&inst);
        assert_eq!(ordered.allocation.satisfied_count(), 1);
        assert!(is_feasible(&inst, &ordered.allocation));
    }

    #[test]
    fn empty_instance() {
        let inst = ProblemInstance {
            node_slots: vec![],
            options: vec![],
        };
        let sol = solve_greedy(&inst);
        assert_eq!(sol.allocation.satisfied_count(), 0);
    }
}
