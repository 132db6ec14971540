//! Candidate enumeration: from demands to integer-program options.
//!
//! Each demand's DAG is linearized to a task chain `t₁ … tₖ`; a candidate
//! allocation *option* assigns every task to a compute-capable site, and
//! the packet path is the concatenation of delay-shortest legs
//! `src → v₁ → … → vₖ → dst`. Option cost combines the *added latency*
//! of that detour over the direct path with the number of transponder
//! slots consumed — the paper's twin objectives (satisfy demands, spend
//! few transponders).

use crate::demand::Demand;
use ofpc_net::routing::distance_matrix;
use ofpc_net::{LinkId, NodeId, Topology};

/// One candidate way to serve a demand.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocOption {
    /// Task-to-node assignment, in chain order.
    pub placement: Vec<NodeId>,
    /// Scalar cost (milliseconds of added latency + slot penalty).
    pub cost: f64,
    /// Added latency of the detour vs the direct path, ps.
    pub added_latency_ps: u64,
}

/// A fully-enumerated allocation problem.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    /// Transponder slots available at each node (indexed by NodeId).
    pub node_slots: Vec<usize>,
    /// Options per demand (same order as the demand list passed in).
    pub options: Vec<Vec<AllocOption>>,
}

impl ProblemInstance {
    pub(crate) fn demand_count(&self) -> usize {
        self.options.len()
    }
}

/// Weight of one consumed slot in the cost term, expressed in
/// milliseconds of equivalent latency (cost units).
pub(crate) const SLOT_COST_MS: f64 = 0.5;

/// Enumerate options for `demands` over `topo`, where `node_slots[n]` is
/// the number of compute transponders at node `n`. Options per demand
/// are capped at `max_options_per_demand`, keeping the cheapest.
///
/// Demands whose DAG is cyclic, or whose endpoints are disconnected, get
/// an empty option list (they can never be satisfied).
pub fn enumerate_options(
    topo: &Topology,
    node_slots: &[usize],
    demands: &[Demand],
    max_options_per_demand: usize,
) -> ProblemInstance {
    enumerate_options_filtered(topo, node_slots, demands, max_options_per_demand, &|_| true)
}

/// [`enumerate_options`] restricted to links accepted by `link_ok` — the
/// fault-recovery variant. Detour legs and direct baselines are both
/// measured over the surviving links only, so a placement stranded
/// behind a cut fiber prices in its real (possibly unreachable) detour
/// instead of the nominal one, and the solver moves compute onto sites
/// the post-fault paths actually visit.
pub fn enumerate_options_filtered(
    topo: &Topology,
    node_slots: &[usize],
    demands: &[Demand],
    max_options_per_demand: usize,
    link_ok: &dyn Fn(LinkId) -> bool,
) -> ProblemInstance {
    assert_eq!(
        node_slots.len(),
        topo.node_count(),
        "node_slots must cover every node"
    );
    assert!(max_options_per_demand >= 1, "need at least one option slot");
    let dist = distance_matrix(topo, link_ok);
    let compute_sites: Vec<NodeId> = (0..node_slots.len())
        .filter(|&n| node_slots[n] > 0)
        .map(|n| NodeId(n as u32))
        .collect();
    let mut options = Vec::with_capacity(demands.len());
    for demand in demands {
        options.push(options_from_matrix(
            demand,
            &dist,
            &compute_sites,
            max_options_per_demand,
        ));
    }
    ProblemInstance {
        node_slots: node_slots.to_vec(),
        options,
    }
}

/// Enumerate the candidate options for one demand from a precomputed
/// distance matrix (`dist[u][v]` = delay-shortest u→v distance in ps
/// over whatever link set the matrix was built from, `None` if
/// unreachable). This is the kernel [`enumerate_options_filtered`] runs
/// per demand; the sharded controller calls it directly so each shard
/// can reuse its cached region-local matrix instead of re-running
/// Dijkstra over the whole WAN on every request arrival. The returned
/// list is cost-sorted (stable: ties keep DFS emission order) and
/// capped at `cap`, so the bytes are a pure function of the inputs.
pub fn options_from_matrix(
    demand: &Demand,
    dist: &[Vec<Option<u64>>],
    compute_sites: &[NodeId],
    cap: usize,
) -> Vec<AllocOption> {
    let Some(k) = demand.dag.chain_len() else {
        return Vec::new(); // cyclic DAG
    };
    let s = demand.src.0 as usize;
    let t = demand.dst.0 as usize;
    let Some(direct) = dist[s][t] else {
        return Vec::new(); // disconnected endpoints
    };
    if k == 0 {
        // Nothing to place: the direct path serves it at zero cost.
        return vec![AllocOption {
            placement: vec![],
            cost: 0.0,
            added_latency_ps: 0,
        }];
    }
    let tuples = compute_sites.len().saturating_pow(k as u32);
    let mut walk = TupleWalk {
        dist,
        sites: compute_sites,
        k,
        t,
        direct,
        cap,
        min_tail: compute_sites
            .iter()
            .filter_map(|v| dist[v.0 as usize][t])
            .min(),
        placement: Vec::with_capacity(k),
        kept: Vec::with_capacity(cap.min(tuples)),
    };
    walk.descend(s, 0);
    walk.kept
}

/// Depth-first walk over the k-fold product of compute sites that keeps
/// only the `cap` cheapest complete tuples. Each depth tries the sites
/// from last to first, so tuples come out in reverse-lexicographic
/// order over `sites`; a tuple whose leg is unreachable is pruned with
/// its whole subtree. `kept` stays sorted by cost with ties in that
/// emission order, which is exactly a stable sort of every tuple
/// truncated to `cap`, but only kept tuples allocate a placement. Once
/// `kept` is full, a subtree none of whose tuples can rank is skipped
/// (see [`TupleWalk::pruned`]).
struct TupleWalk<'a> {
    dist: &'a [Vec<Option<u64>>],
    sites: &'a [NodeId],
    /// Tasks in the chain: the tuple length.
    k: usize,
    /// The demand's destination node.
    t: usize,
    /// Delay of the direct src → dst path, ps.
    direct: u64,
    cap: usize,
    /// The cheapest site → dst leg, ps, which every tuple ends with;
    /// `None` when no site reaches dst.
    min_tail: Option<u64>,
    placement: Vec<NodeId>,
    kept: Vec<AllocOption>,
}

impl TupleWalk<'_> {
    fn descend(&mut self, from: usize, latency_so_far: u64) {
        if self.placement.len() == self.k {
            let Some(tail) = self.dist[from][self.t] else {
                return;
            };
            let (cost, added) = self.price(latency_so_far + tail);
            self.offer(cost, added);
            return;
        }
        if self.pruned(latency_so_far) {
            return;
        }
        for &site in self.sites.iter().rev() {
            let Some(leg) = self.dist[from][site.0 as usize] else {
                continue;
            };
            self.placement.push(site);
            self.descend(site.0 as usize, latency_so_far + leg);
            self.placement.pop();
        }
    }

    /// The cost and added latency of a tuple whose path takes
    /// `latency` ps end to end.
    fn price(&self, latency: u64) -> (f64, u64) {
        let added = latency.saturating_sub(self.direct);
        (added as f64 / 1e9 + self.k as f64 * SLOT_COST_MS, added)
    }

    /// Whether no tuple below a partial placement whose legs so far take
    /// `latency` ps can rank. Each such tuple costs at least the price
    /// of `latency` plus the cheapest tail, since legs are non-negative.
    /// Once `kept` is full, a tuple that costs no less than its last
    /// entry ranks after it, and the last kept cost only falls.
    fn pruned(&self, latency: u64) -> bool {
        let Some(tail) = self.min_tail else {
            return true; // no tuple completes
        };
        if self.kept.len() < self.cap {
            return false;
        }
        self.kept
            .last()
            .is_none_or(|last| self.price(latency + tail).0 >= last.cost)
    }

    /// Keep the current placement if it ranks among the `cap` cheapest
    /// so far; an equal-cost tuple ranks after those emitted before it.
    fn offer(&mut self, cost: f64, added_latency_ps: u64) {
        let rank = self.kept.partition_point(|o| o.cost <= cost);
        if rank >= self.cap {
            return;
        }
        if self.kept.len() == self.cap {
            self.kept.pop();
        }
        self.kept.insert(
            rank,
            AllocOption {
                placement: self.placement.clone(),
                cost,
                added_latency_ps,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::TaskDag;
    use ofpc_engine::Primitive;
    use ofpc_photonics::SimRng;

    fn fig1() -> (Topology, Vec<usize>) {
        let topo = Topology::fig1();
        // B and C each have 2 transponders.
        (topo, vec![0, 2, 2, 0])
    }

    fn p1_demand(id: u32, src: u32, dst: u32) -> Demand {
        Demand::new(
            id,
            NodeId(src),
            NodeId(dst),
            TaskDag::single(Primitive::VectorDotProduct),
        )
    }

    #[test]
    fn single_task_options_cover_both_sites() {
        let (topo, slots) = fig1();
        let demands = vec![p1_demand(0, 0, 3)]; // A → D
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        assert_eq!(inst.options[0].len(), 2);
        let sites: Vec<u32> = inst.options[0].iter().map(|o| o.placement[0].0).collect();
        assert!(sites.contains(&1) && sites.contains(&2));
        // Both B and C lie on equal-length A→D paths: essentially zero
        // added latency (±1 ps of per-leg integer rounding).
        for o in &inst.options[0] {
            assert!(o.added_latency_ps <= 2, "added {}", o.added_latency_ps);
        }
    }

    #[test]
    fn off_path_detour_has_positive_added_latency() {
        let (topo, slots) = fig1();
        // A → B directly is 800 km; going via C first adds real fiber.
        let demands = vec![p1_demand(0, 0, 1)];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        let via_b = inst.options[0]
            .iter()
            .find(|o| o.placement[0] == NodeId(1))
            .unwrap();
        let via_c = inst.options[0]
            .iter()
            .find(|o| o.placement[0] == NodeId(2))
            .unwrap();
        assert_eq!(via_b.added_latency_ps, 0);
        assert!(via_c.added_latency_ps > 0);
        assert!(via_c.cost > via_b.cost);
    }

    #[test]
    fn chain_demand_enumerates_tuples() {
        let (topo, slots) = fig1();
        let dag = TaskDag::chain(vec![
            Primitive::VectorDotProduct,
            Primitive::NonlinearFunction,
        ]);
        let demands = vec![Demand::new(0, NodeId(0), NodeId(3), dag)];
        let inst = enumerate_options(&topo, &slots, &demands, 100);
        // 2 sites × 2 sites = 4 tuples.
        assert_eq!(inst.options[0].len(), 4);
        // Every option consumes 2 slots worth of cost.
        for o in &inst.options[0] {
            assert_eq!(o.placement.len(), 2);
            assert!(o.cost >= 2.0 * SLOT_COST_MS);
        }
    }

    #[test]
    fn option_cap_keeps_cheapest() {
        let (topo, slots) = fig1();
        let dag = TaskDag::chain(vec![
            Primitive::VectorDotProduct,
            Primitive::NonlinearFunction,
        ]);
        let demands = vec![Demand::new(0, NodeId(0), NodeId(3), dag)];
        let all = enumerate_options(&topo, &slots, &demands, 100);
        let capped = enumerate_options(&topo, &slots, &demands, 2);
        assert_eq!(capped.options[0].len(), 2);
        let min_cost = all.options[0]
            .iter()
            .map(|o| o.cost)
            .fold(f64::MAX, f64::min);
        assert_eq!(capped.options[0][0].cost, min_cost);
    }

    #[test]
    fn cut_link_reprices_the_stranded_site() {
        let (topo, slots) = fig1();
        let demands = vec![p1_demand(0, 0, 3)]; // A → D
                                                // Cut A–B (the first link incident to A toward B).
        let a = topo.find_node("A").unwrap();
        let b = topo.find_node("B").unwrap();
        let cut = topo
            .neighbors(a)
            .into_iter()
            .find(|&(_, n)| n == b)
            .map(|(l, _)| l)
            .unwrap();
        let inst = enumerate_options_filtered(&topo, &slots, &demands, 10, &|l| l != cut);
        let via_b = inst.options[0]
            .iter()
            .find(|o| o.placement[0] == NodeId(1))
            .unwrap();
        let via_c = inst.options[0]
            .iter()
            .find(|o| o.placement[0] == NodeId(2))
            .unwrap();
        // C sits on the surviving A→C→D path: zero added latency. B is
        // now a dead-end detour (A→C→D→B→D) and must price that in.
        assert_eq!(via_c.added_latency_ps, 0);
        assert!(via_b.added_latency_ps > 0);
        assert!(via_c.cost < via_b.cost);
    }

    #[test]
    fn fully_severed_endpoints_lose_all_options() {
        let (topo, slots) = fig1();
        let demands = vec![p1_demand(0, 0, 3)];
        let inst = enumerate_options_filtered(&topo, &slots, &demands, 10, &|_| false);
        assert!(inst.options[0].is_empty(), "no surviving links, no plan");
    }

    #[test]
    fn no_compute_sites_means_no_options() {
        let topo = Topology::fig1();
        let demands = vec![p1_demand(0, 0, 3)];
        let inst = enumerate_options(&topo, &[0, 0, 0, 0], &demands, 10);
        assert!(inst.options[0].is_empty());
    }

    #[test]
    fn empty_dag_gets_free_option() {
        let (topo, slots) = fig1();
        let demands = vec![Demand::new(0, NodeId(0), NodeId(3), TaskDag::chain(vec![]))];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        assert_eq!(inst.options[0].len(), 1);
        assert_eq!(inst.options[0][0].cost, 0.0);
    }

    #[test]
    fn disconnected_demand_has_no_options() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let _c = topo.add_node("c");
        topo.add_link(a, b, 10.0);
        let demands = vec![p1_demand(0, 0, 2)]; // c is isolated
        let inst = enumerate_options(&topo, &[1, 1, 1], &demands, 10);
        assert!(inst.options[0].is_empty());
    }

    #[test]
    fn options_from_matrix_agrees_with_full_enumeration() {
        // The public kernel must reproduce exactly what the full
        // enumerator emits when given the same matrix — the sharded
        // controller's cached-matrix path rides on this equality.
        let (topo, slots) = fig1();
        let dag = TaskDag::chain(vec![
            Primitive::VectorDotProduct,
            Primitive::NonlinearFunction,
        ]);
        let demands = vec![Demand::new(0, NodeId(0), NodeId(3), dag)];
        let inst = enumerate_options(&topo, &slots, &demands, 3);
        let dist = distance_matrix(&topo, &|_| true);
        let sites = vec![NodeId(1), NodeId(2)];
        let direct = options_from_matrix(&demands[0], &dist, &sites, 3);
        assert_eq!(inst.options[0], direct);
    }

    /// The stack DFS `options_from_matrix` replaced, kept verbatim as
    /// the differential oracle: enumerate every tuple, stable-sort by
    /// cost, truncate.
    fn reference_options(
        demand: &Demand,
        dist: &[Vec<Option<u64>>],
        compute_sites: &[NodeId],
        cap: usize,
    ) -> Vec<AllocOption> {
        let Some(chain) = demand.dag.linearize() else {
            return Vec::new(); // cyclic DAG
        };
        let k = chain.len();
        let s = demand.src.0 as usize;
        let t = demand.dst.0 as usize;
        let Some(direct) = dist[s][t] else {
            return Vec::new(); // disconnected endpoints
        };
        if k == 0 {
            // Nothing to place: the direct path serves it at zero cost.
            return vec![AllocOption {
                placement: vec![],
                cost: 0.0,
                added_latency_ps: 0,
            }];
        }
        // Enumerate placement tuples over compute sites (k-fold product),
        // depth-first, pruning unreachable legs.
        let mut out: Vec<AllocOption> = Vec::new();
        let mut stack: Vec<(Vec<NodeId>, u64)> = vec![(Vec::new(), 0)];
        while let Some((placement, latency_so_far)) = stack.pop() {
            let from = placement.last().map(|n| n.0 as usize).unwrap_or(s);
            if placement.len() == k {
                let Some(tail) = dist[from][t] else { continue };
                let total = latency_so_far + tail;
                let added = total.saturating_sub(direct);
                out.push(AllocOption {
                    placement,
                    cost: added as f64 / 1e9 + k as f64 * SLOT_COST_MS,
                    added_latency_ps: added,
                });
                continue;
            }
            for &site in compute_sites {
                let Some(leg) = dist[from][site.0 as usize] else {
                    continue;
                };
                let mut next = placement.clone();
                next.push(site);
                stack.push((next, latency_so_far + leg));
            }
        }
        out.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
        out.truncate(cap);
        out
    }

    #[test]
    fn top_k_walk_matches_the_reference_enumerator() {
        // Small random matrices with unreachable legs and delays drawn
        // from a handful of values, so most tuples tie on cost and the
        // tie order is what decides which ones survive the cap.
        let mut rng = SimRng::seed_from_u64(0x0971);
        let prims = [
            Primitive::VectorDotProduct,
            Primitive::PatternMatching,
            Primitive::NonlinearFunction,
        ];
        for case in 0..3_000 {
            let n = 1 + rng.below(6);
            let dist: Vec<Vec<Option<u64>>> = (0..n)
                .map(|_| {
                    (0..n)
                        .map(|_| (!rng.chance(0.2)).then(|| rng.below(4) as u64 * 1_000_000))
                        .collect()
                })
                .collect();
            let mut sites: Vec<NodeId> = (0..n)
                .filter(|_| rng.chance(0.6))
                .map(|v| NodeId(v as u32))
                .collect();
            if rng.chance(0.3) {
                rng.shuffle(&mut sites);
            }
            let chain: Vec<Primitive> = (0..rng.below(4)).map(|_| prims[rng.below(3)]).collect();
            let demand = Demand::new(
                case,
                NodeId(rng.below(n) as u32),
                NodeId(rng.below(n) as u32),
                TaskDag::chain(chain),
            );
            let cap = rng.below(10);
            assert_eq!(
                options_from_matrix(&demand, &dist, &sites, cap),
                reference_options(&demand, &dist, &sites, cap),
                "case {case}: {demand:?} over {sites:?}, cap {cap}"
            );
        }
    }
}
