//! Compute demands and task DAGs.
//!
//! The controller's optimization input (§3): "user demands in terms of
//! photonic computing task dependency graphs (e.g., a computation DAG)".
//! A [`TaskDag`] is a set of primitive tasks with dependency edges; the
//! placement machinery consumes its topological linearization, because
//! tasks placed along a single packet path execute in path order.

use ofpc_engine::Primitive;
use ofpc_net::NodeId;

/// Demand identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DemandId(pub u32);

/// A computation DAG: nodes are primitive tasks, edges are dependencies
/// (`from` must execute before `to`).
#[derive(Debug, Clone)]
pub struct TaskDag {
    pub(crate) tasks: Vec<Primitive>,
    pub(crate) edges: Vec<(usize, usize)>,
}

impl TaskDag {
    /// A linear chain of tasks.
    pub fn chain(tasks: Vec<Primitive>) -> Self {
        let edges = (1..tasks.len()).map(|i| (i - 1, i)).collect();
        TaskDag { tasks, edges }
    }

    /// A single-task DAG.
    pub fn single(task: Primitive) -> Self {
        TaskDag {
            tasks: vec![task],
            edges: vec![],
        }
    }

    /// Topological order of task indices, or `None` if the graph has a
    /// cycle (an invalid demand).
    pub(crate) fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for &(from, to) in &self.edges {
            assert!(from < n && to < n, "edge references unknown task");
            indegree[to] += 1;
        }
        // Kahn's algorithm with smallest-index-first tie-break for
        // determinism.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(n);
        while let Some(&next) = ready.first() {
            ready.remove(0);
            order.push(next);
            for &(from, to) in &self.edges {
                if from == next {
                    indegree[to] -= 1;
                    if indegree[to] == 0 {
                        let pos = ready.partition_point(|&x| x < to);
                        ready.insert(pos, to);
                    }
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None // cycle
        }
    }

    /// The placement chain's length, or `None` if the graph has a
    /// cycle: `linearize()`'s length without building the chain. Edges
    /// that all run from a lower to a higher task index admit the index
    /// order, so a chain needs no sort.
    pub(crate) fn chain_len(&self) -> Option<usize> {
        let n = self.tasks.len();
        if self.edges.iter().all(|&(from, to)| from < to && to < n) {
            Some(n)
        } else {
            self.topo_order().map(|order| order.len())
        }
    }

    /// The primitive sequence in topological order (the placement chain).
    pub fn linearize(&self) -> Option<Vec<Primitive>> {
        Some(
            self.topo_order()?
                .into_iter()
                .map(|i| self.tasks[i])
                .collect(),
        )
    }
}

/// A user's compute demand: traffic from `src` to `dst` that needs the
/// DAG's tasks executed in-network along the way.
#[derive(Debug, Clone)]
pub struct Demand {
    pub id: DemandId,
    pub src: NodeId,
    pub dst: NodeId,
    pub dag: TaskDag,
}

impl Demand {
    pub fn new(id: u32, src: NodeId, dst: NodeId, dag: TaskDag) -> Self {
        Demand {
            id: DemandId(id),
            src,
            dst,
            dag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: Primitive = Primitive::VectorDotProduct;
    const P2: Primitive = Primitive::PatternMatching;
    const P3: Primitive = Primitive::NonlinearFunction;

    #[test]
    fn chain_linearizes_in_order() {
        let dag = TaskDag::chain(vec![P1, P3, P2]);
        assert_eq!(dag.linearize().unwrap(), vec![P1, P3, P2]);
        assert_eq!(dag.tasks.len(), 3);
    }

    #[test]
    fn diamond_dag_respects_dependencies() {
        // 0 → {1, 2} → 3 (a DNN layer: dot products fan out, nonlinear
        // joins).
        let dag = TaskDag {
            tasks: vec![P1, P2, P1, P3],
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        };
        let order = dag.topo_order().unwrap();
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_is_rejected() {
        let dag = TaskDag {
            tasks: vec![P1, P2],
            edges: vec![(0, 1), (1, 0)],
        };
        assert_eq!(dag.topo_order(), None);
        assert_eq!(dag.linearize(), None);
    }

    #[test]
    fn chain_len_agrees_with_linearize() {
        let dags = [
            TaskDag::chain(vec![P1, P3, P2]),
            TaskDag::single(P2),
            TaskDag::chain(vec![]),
            // Acyclic, but an edge runs from a higher index to a lower.
            TaskDag {
                tasks: vec![P1, P2, P3],
                edges: vec![(2, 0), (0, 1)],
            },
            TaskDag {
                tasks: vec![P1, P2],
                edges: vec![(0, 1), (1, 0)],
            },
        ];
        for dag in &dags {
            assert_eq!(dag.chain_len(), dag.linearize().map(|c| c.len()), "{dag:?}");
        }
    }

    #[test]
    fn topo_order_is_deterministic() {
        let dag = TaskDag {
            tasks: vec![P1, P1, P1],
            edges: vec![],
        };
        // Independent tasks: smallest index first.
        assert_eq!(dag.topo_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn single_and_empty() {
        assert_eq!(TaskDag::single(P2).linearize().unwrap(), vec![P2]);
        let empty = TaskDag::chain(vec![]);
        assert!(empty.tasks.is_empty());
        assert_eq!(empty.topo_order().unwrap(), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn bad_edge_panics() {
        let dag = TaskDag {
            tasks: vec![P1],
            edges: vec![(0, 5)],
        };
        dag.topo_order();
    }
}
