//! # ofpc-controller — the centralized controller
//!
//! The paper's §3 controller: it "continuously track\[s\] the status of all
//! photonic compute transponders and dynamically reconfigure\[s\] them",
//! solving an optimization whose inputs are "photonic computing task
//! dependency graphs (e.g., a computation DAG) and network topology",
//! whose constraints are "the number of transponders at each node", and
//! whose objective is "to satisfy as many compute demands as possible
//! while minimizing the resource utilization of transponders".
//!
//! Module map:
//!
//! * [`demand`] — compute demands with task DAGs, linearized to placement
//!   chains.
//! * [`options`] — candidate enumeration: placement tuples over
//!   compute-capable sites, costed by added latency and slots.
//! * [`ilp`] — exact branch-and-bound over the integer allocation (this
//!   is the §5 scalability wall, measured by experiment E6).
//! * [`lp`] — a dense-tableau simplex solving the LP relaxation, plus
//!   randomized rounding with greedy repair.
//! * [`greedy`] — the cheap baseline allocator.
//! * [`teupdate`] — turning an allocation into per-router dual-field
//!   route updates (§3's "next-hop updates to all routers").
//! * [`protection`] — failure recovery: precomputed link-disjoint backup
//!   paths, failed-site exclusion for allocator re-runs, and
//!   time-to-recovery accounting.

pub mod demand;
pub mod greedy;
pub mod ilp;
pub mod lp;
pub mod options;
pub mod protection;
pub mod teupdate;

pub use demand::{Demand, TaskDag};
pub(crate) use options::ProblemInstance;
pub use options::{enumerate_options, options_from_matrix, AllocOption};
pub use protection::{ttr_bound_ps, RecoveryTimeline};
pub use teupdate::build_plan_from_placements;

/// An allocation: for each demand (by index), the chosen option index
/// into its option list, or `None` if unsatisfied.
#[derive(Debug, Clone)]
pub struct Allocation {
    pub choices: Vec<Option<usize>>,
}

impl Allocation {
    pub fn satisfied_count(&self) -> usize {
        self.choices.iter().filter(|c| c.is_some()).count()
    }
}

/// Objective value of an allocation: lexicographic (satisfied demands
/// maximized, then total cost minimized), packed into a single
/// comparable score. Cost is bounded per option, so the packing is safe.
pub fn score(instance: &ProblemInstance, alloc: &Allocation) -> f64 {
    let mut satisfied = 0usize;
    let mut cost = 0.0f64;
    for (d, choice) in alloc.choices.iter().enumerate() {
        if let Some(o) = choice {
            satisfied += 1;
            cost += instance.options[d][*o].cost;
        }
    }
    satisfied as f64 * 1e9 - cost
}

/// Validate an allocation against per-node slot capacities.
pub fn is_feasible(instance: &ProblemInstance, alloc: &Allocation) -> bool {
    let mut used = vec![0usize; instance.node_slots.len()];
    for (d, choice) in alloc.choices.iter().enumerate() {
        if let Some(o) = choice {
            for &node in &instance.options[d][*o].placement {
                used[node.0 as usize] += 1;
                if used[node.0 as usize] > instance.node_slots[node.0 as usize] {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_net::NodeId;

    fn tiny_instance() -> ProblemInstance {
        // Two demands, one compute site with one slot: only one can win.
        ProblemInstance {
            node_slots: vec![0, 1, 0],
            options: vec![
                vec![AllocOption {
                    placement: vec![NodeId(1)],
                    cost: 1.0,
                    added_latency_ps: 0,
                }],
                vec![AllocOption {
                    placement: vec![NodeId(1)],
                    cost: 2.0,
                    added_latency_ps: 0,
                }],
            ],
        }
    }

    #[test]
    fn feasibility_checks_capacity() {
        let inst = tiny_instance();
        let both = Allocation {
            choices: vec![Some(0), Some(0)],
        };
        assert!(!is_feasible(&inst, &both));
        let one = Allocation {
            choices: vec![Some(0), None],
        };
        assert!(is_feasible(&inst, &one));
        let none = Allocation {
            choices: vec![None, None],
        };
        assert!(is_feasible(&inst, &none));
    }

    #[test]
    fn score_prefers_more_satisfied_then_cheaper() {
        let inst = tiny_instance();
        let a = Allocation {
            choices: vec![Some(0), None],
        };
        let b = Allocation {
            choices: vec![None, Some(0)],
        };
        let none = Allocation {
            choices: vec![None, None],
        };
        assert!(score(&inst, &a) > score(&inst, &none));
        // Same satisfied count: cheaper option wins.
        assert!(score(&inst, &a) > score(&inst, &b));
    }
}
