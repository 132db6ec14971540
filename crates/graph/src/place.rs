//! Placement: bind compiled stages to engine sites along a fiber path
//! and assign WDM wavelengths for pipelining.
//!
//! The photonic stages of a [`CompiledPlan`] become a controller demand
//! chain: [`enumerate_options`] prices every feasible site tuple along
//! `src → … → dst` (detour latency + slot cost, exactly the serving
//! controller's objective) and the greedy solver picks the winner.
//! Digital stages ride along — they run in the DSP of wherever the
//! request currently is, so they bind to the previous photonic site (or
//! the source before any photonic stage).
//!
//! Wavelength assignment is what makes the pipeline work: photonic
//! stage *k* gets WDM channel `k mod channels`, so consecutive stages
//! occupy different wavelengths and stage *k+1* of request *i* can
//! overlap stage *k* of request *i+1* on the same fiber — the executor
//! ([`crate::exec`]) enforces exactly that resource model.

use crate::lower::{CompiledPlan, Target};
use ofpc_controller::{enumerate_options, greedy::solve_greedy, Demand, TaskDag};
use ofpc_net::routing::distance_matrix;
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::wdm::WdmGrid;

/// Where one stage executes and on which wavelength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBinding {
    /// Index into `plan.stages`.
    pub stage: usize,
    /// Engine site (photonic stages) or host node (digital stages).
    pub node: NodeId,
    /// WDM channel index; digital stages keep the inbound channel.
    pub wavelength: usize,
    /// Carrier wavelength, metres.
    pub(crate) wavelength_m: f64,
    /// Fiber propagation from the previous location into this stage, ps.
    pub hop_in_ps: u64,
}

/// A fully placed plan: the compiled stages plus their site/wavelength
/// bindings along the `src → dst` path.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedPlan {
    pub plan: CompiledPlan,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub bindings: Vec<StageBinding>,
    /// Fiber time from the last stage's site to `dst`, ps.
    pub(crate) hop_out_ps: u64,
    /// Direct `src → dst` propagation (the no-compute baseline), ps.
    pub direct_ps: u64,
    /// Detour cost of the chosen placement over the direct path, ps.
    pub added_latency_ps: u64,
}

impl PlacedPlan {
    /// The distinct engine sites the plan's photonic stages occupy.
    pub fn photonic_sites(&self) -> Vec<NodeId> {
        let mut sites: Vec<NodeId> = self
            .bindings
            .iter()
            .filter(|b| self.plan.stages[b.stage].target == Target::Photonic)
            .map(|b| b.node)
            .collect();
        sites.sort_by_key(|n| n.0);
        sites.dedup();
        sites
    }
}

/// Why placement failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// No feasible site tuple exists (disconnected endpoints, or no
    /// compute sites with free slots).
    NoFeasiblePlacement,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NoFeasiblePlacement => {
                write!(f, "no feasible site placement for the photonic stages")
            }
        }
    }
}

/// Bind `plan` to sites and wavelengths on `topo`, where
/// `node_slots[n]` counts the compute transponder slots at node `n`.
pub(crate) fn place(
    plan: &CompiledPlan,
    topo: &Topology,
    node_slots: &[usize],
    src: NodeId,
    dst: NodeId,
    wdm_channels: usize,
) -> Result<PlacedPlan, PlaceError> {
    assert!(wdm_channels >= 1, "need at least one WDM channel");
    let photonic_idx: Vec<usize> = plan
        .stages
        .iter()
        .enumerate()
        .filter(|(_, s)| s.target == Target::Photonic)
        .map(|(i, _)| i)
        .collect();

    let dist = distance_matrix(topo, &|_| true);
    let direct_ps = dist[src.0 as usize][dst.0 as usize].ok_or(PlaceError::NoFeasiblePlacement)?;

    // Controller pass: the photonic stages as a task chain.
    let (placement, added_latency_ps) = if photonic_idx.is_empty() {
        (Vec::new(), 0)
    } else {
        let dag = TaskDag::chain(
            photonic_idx
                .iter()
                .map(|&i| {
                    plan.stages[i]
                        .class
                        .expect("photonic stage has a class")
                        .primitive
                })
                .collect(),
        );
        let demands = vec![Demand::new(0, src, dst, dag)];
        let instance = enumerate_options(topo, node_slots, &demands, 64);
        let solution = solve_greedy(&instance);
        let choice = solution.allocation.choices[0].ok_or(PlaceError::NoFeasiblePlacement)?;
        let option = &instance.options[0][choice];
        (option.placement.clone(), option.added_latency_ps)
    };

    // Walk the stage chain, threading the current location through
    // digital stages and hopping fiber between distinct sites.
    let grid = WdmGrid::c_band(wdm_channels);
    let mut bindings = Vec::with_capacity(plan.stages.len());
    let mut here = src;
    let mut photonic_seen = 0usize;
    let mut wavelength = 0usize;
    for (i, stage) in plan.stages.iter().enumerate() {
        let node = match stage.target {
            Target::Photonic => {
                let n = placement[photonic_seen];
                wavelength = photonic_seen % wdm_channels;
                photonic_seen += 1;
                n
            }
            Target::Digital => here,
        };
        let hop_in_ps =
            dist[here.0 as usize][node.0 as usize].ok_or(PlaceError::NoFeasiblePlacement)?;
        bindings.push(StageBinding {
            stage: i,
            node,
            wavelength,
            wavelength_m: grid.wavelength_m(wavelength),
            hop_in_ps,
        });
        here = node;
    }
    let hop_out_ps =
        dist[here.0 as usize][dst.0 as usize].ok_or(PlaceError::NoFeasiblePlacement)?;

    Ok(PlacedPlan {
        plan: plan.clone(),
        src,
        dst,
        bindings,
        hop_out_ps,
        direct_ps,
        added_latency_ps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::dnn_graph;
    use crate::lower::{lower, ErrorBudget, LowerConfig};
    use ofpc_apps::digital::ComputeModel;
    use ofpc_engine::dnn::Mlp;
    use ofpc_photonics::SimRng;
    use ofpc_serve::ServiceModel;
    use ofpc_transponder::compute::ComputeTransponderConfig;

    fn plan() -> CompiledPlan {
        let mut rng = SimRng::seed_from_u64(16);
        let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
        let g = dnn_graph(&mlp, 4.0, 6.0);
        let cfg = LowerConfig {
            budget: ErrorBudget::realistic(),
            model: ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), 4),
            digital: ComputeModel::edge_soc(),
            variants: Vec::new(),
        };
        lower(&g, &cfg).expect("lowers")
    }

    #[test]
    fn places_dnn_on_fig1_sites() {
        let topo = Topology::fig1();
        let placed =
            place(&plan(), &topo, &[0, 2, 2, 0], NodeId(0), NodeId(3), 4).expect("placeable");
        assert_eq!(placed.bindings.len(), 3);
        // Every photonic stage landed on a compute-capable site.
        for site in placed.photonic_sites() {
            assert!(site == NodeId(1) || site == NodeId(2), "site {site:?}");
        }
        // Consecutive photonic stages ride distinct wavelengths.
        let wl: Vec<usize> = placed.bindings.iter().map(|b| b.wavelength).collect();
        assert!(wl.windows(2).all(|w| w[0] != w[1]), "wavelengths {wl:?}");
        // The path hops add up and include the egress leg.
        let path_ps = placed.bindings.iter().map(|b| b.hop_in_ps).sum::<u64>() + placed.hop_out_ps;
        assert!(path_ps >= placed.direct_ps);
    }

    #[test]
    fn wavelengths_wrap_round_robin() {
        let topo = Topology::fig1();
        let placed =
            place(&plan(), &topo, &[0, 2, 2, 0], NodeId(0), NodeId(3), 2).expect("placeable");
        let wl: Vec<usize> = placed.bindings.iter().map(|b| b.wavelength).collect();
        assert_eq!(wl, vec![0, 1, 0]);
        let grid = WdmGrid::c_band(2);
        assert_eq!(placed.bindings[0].wavelength_m, grid.wavelength_m(0));
    }

    #[test]
    fn no_slots_means_no_placement() {
        let topo = Topology::fig1();
        let err = place(&plan(), &topo, &[0, 0, 0, 0], NodeId(0), NodeId(3), 4);
        assert_eq!(err, Err(PlaceError::NoFeasiblePlacement));
    }

    #[test]
    fn digital_stages_stay_at_previous_site() {
        let g = crate::ir::correlation_graph(64, 16, 4.0);
        let cfg = LowerConfig {
            budget: ErrorBudget::realistic(),
            model: ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), 4),
            digital: ComputeModel::edge_soc(),
            variants: Vec::new(),
        };
        let p = lower(&g, &cfg).expect("lowers");
        let topo = Topology::fig1();
        let placed = place(&p, &topo, &[0, 2, 2, 0], NodeId(0), NodeId(3), 4).expect("placeable");
        // Stage 0 is digital framing: it runs at the source, zero hop.
        assert_eq!(placed.bindings[0].node, NodeId(0));
        assert_eq!(placed.bindings[0].hop_in_ps, 0);
    }
}
