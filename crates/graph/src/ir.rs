//! The dataflow IR: typed ops with tensor shapes and precision
//! requirements, connected by edges that carry data volumes.
//!
//! A [`WorkGraph`] describes one Table-1 application as the compiler
//! sees it — *what* must be computed and to *how many effective bits*,
//! with no commitment yet to photonic vs digital execution or to any
//! site. Ops map onto the repo's engine primitives (P1 MVM, P2
//! correlate/match/compare, P3 nonlinear) plus an explicit digital op
//! for work that never had a photonic form (framing, decision logic).
//! Builders at the bottom construct the Table-1 app graphs, starting
//! with the DNN chain derived from [`ofpc_engine::dnn::Mlp`].

use ofpc_engine::dnn::Mlp;
use ofpc_engine::Primitive;

/// Node identifier within one [`WorkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) u32);

/// A typed operation with its tensor shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OpKind {
    /// Matrix-vector multiply, `rows × cols` (P1 on WDM lanes).
    Mvm { rows: usize, cols: usize },
    /// Element-wise nonlinear activation over `width` values (P3).
    Nonlinear { width: usize },
    /// Sliding correlation of a `pattern_len` template over a `window`
    /// sample stream (P2).
    Correlate { pattern_len: usize, window: usize },
    /// Block pattern match against a `pattern_len` template (P2).
    Match { pattern_len: usize },
    /// Threshold/compare reduction over `width` values (P2 physics).
    Compare { width: usize },
    /// Digital-only work: `macs` multiply-accumulates taking `input_len`
    /// values to `output_len` (framing, decision logic, fallback).
    Digital {
        input_len: usize,
        output_len: usize,
        macs: u64,
    },
}

impl OpKind {
    /// Elements consumed per invocation.
    pub(crate) fn input_elems(&self) -> usize {
        match *self {
            OpKind::Mvm { cols, .. } => cols,
            OpKind::Nonlinear { width } => width,
            OpKind::Correlate { window, .. } => window,
            OpKind::Match { pattern_len } => pattern_len,
            OpKind::Compare { width } => width,
            OpKind::Digital { input_len, .. } => input_len,
        }
    }

    /// Elements produced per invocation.
    pub(crate) fn output_elems(&self) -> usize {
        match *self {
            OpKind::Mvm { rows, .. } => rows,
            OpKind::Nonlinear { width } => width,
            OpKind::Correlate {
                pattern_len,
                window,
            } => window + 1 - pattern_len.min(window),
            OpKind::Match { .. } | OpKind::Compare { .. } => 1,
            OpKind::Digital { output_len, .. } => output_len,
        }
    }

    /// Multiply-accumulate (or equivalent op) count per invocation.
    pub(crate) fn macs(&self) -> u64 {
        match *self {
            OpKind::Mvm { rows, cols } => (rows * cols) as u64,
            OpKind::Nonlinear { width } => width as u64,
            OpKind::Correlate {
                pattern_len,
                window,
            } => (pattern_len * (window + 1 - pattern_len.min(window))) as u64,
            OpKind::Match { pattern_len } => pattern_len as u64,
            OpKind::Compare { width } => width as u64,
            OpKind::Digital { macs, .. } => macs,
        }
    }

    /// The photonic primitive that can execute this op, if any.
    pub(crate) fn primitive(&self) -> Option<Primitive> {
        match self {
            OpKind::Mvm { .. } => Some(Primitive::VectorDotProduct),
            OpKind::Nonlinear { .. } => Some(Primitive::NonlinearFunction),
            OpKind::Correlate { .. } | OpKind::Match { .. } | OpKind::Compare { .. } => {
                Some(Primitive::PatternMatching)
            }
            OpKind::Digital { .. } => None,
        }
    }

    /// Short label for telemetry spans and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            OpKind::Mvm { .. } => "mvm",
            OpKind::Nonlinear { .. } => "nonlinear",
            OpKind::Correlate { .. } => "correlate",
            OpKind::Match { .. } => "match",
            OpKind::Compare { .. } => "compare",
            OpKind::Digital { .. } => "digital",
        }
    }
}

/// One op with its precision requirement.
#[derive(Debug, Clone, Copy)]
pub struct OpNode {
    pub(crate) id: OpId,
    pub(crate) kind: OpKind,
    /// Minimum effective bits the op's result must carry. Lowering runs
    /// the op photonically only if the error budget predicts at least
    /// this resolution at the op's operand length.
    pub(crate) min_bits: f64,
}

/// A dataflow edge: `to` consumes `from`'s output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataEdge {
    pub(crate) from: OpId,
    pub(crate) to: OpId,
}

/// A dataflow graph for one application request.
#[derive(Debug, Clone)]
pub struct WorkGraph {
    pub name: String,
    pub nodes: Vec<OpNode>,
    pub(crate) edges: Vec<DataEdge>,
}

/// Why a graph failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph has a dependency cycle.
    Cyclic,
    /// An edge references an op the graph does not contain.
    DanglingEdge { from: OpId, to: OpId },
    /// Consecutive ops disagree on tensor width: `from` produces
    /// `produced` elements but `to` consumes `consumed`.
    ShapeMismatch {
        from: OpId,
        to: OpId,
        produced: usize,
        consumed: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cyclic => write!(f, "graph has a dependency cycle"),
            GraphError::DanglingEdge { from, to } => {
                write!(f, "edge {}→{} references an unknown op", from.0, to.0)
            }
            GraphError::ShapeMismatch {
                from,
                to,
                produced,
                consumed,
            } => write!(
                f,
                "shape mismatch on {}→{}: {produced} produced, {consumed} consumed",
                from.0, to.0
            ),
        }
    }
}

impl WorkGraph {
    pub(crate) fn new(name: &str) -> Self {
        WorkGraph {
            name: name.to_string(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Append an op; returns its id.
    pub(crate) fn add_op(&mut self, kind: OpKind, min_bits: f64) -> OpId {
        let id = OpId(self.nodes.len() as u32);
        self.nodes.push(OpNode { id, kind, min_bits });
        id
    }

    /// Connect `from → to`: `to` consumes the producer's output.
    pub(crate) fn connect(&mut self, from: OpId, to: OpId) {
        self.edges.push(DataEdge { from, to });
    }

    pub(crate) fn node(&self, id: OpId) -> Option<&OpNode> {
        self.nodes.get(id.0 as usize)
    }

    /// Build a linear chain `ops[0] → ops[1] → …` in one call.
    pub(crate) fn chain(name: &str, ops: &[(OpKind, f64)]) -> Self {
        let mut g = WorkGraph::new(name);
        let mut prev: Option<OpId> = None;
        for &(kind, min_bits) in ops {
            let id = g.add_op(kind, min_bits);
            if let Some(p) = prev {
                g.connect(p, id);
            }
            prev = Some(id);
        }
        g
    }

    /// Total MACs per invocation.
    pub fn total_macs(&self) -> u64 {
        self.nodes.iter().map(|n| n.kind.macs()).sum()
    }

    /// Topological order of op indices (Kahn, smallest-index-first for
    /// determinism), or `None` on a cycle.
    pub(crate) fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            if (e.to.0 as usize) < n {
                indegree[e.to.0 as usize] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.first().copied() {
            ready.remove(0);
            order.push(i);
            let mut unlocked = Vec::new();
            for e in &self.edges {
                if e.from.0 as usize == i {
                    let t = e.to.0 as usize;
                    indegree[t] -= 1;
                    if indegree[t] == 0 {
                        unlocked.push(t);
                    }
                }
            }
            unlocked.sort_unstable();
            for u in unlocked {
                let pos = ready.partition_point(|&r| r < u);
                ready.insert(pos, u);
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Validate the graph: acyclic, edges resolve, and every edge's
    /// producer/consumer agree on tensor width.
    pub(crate) fn validate(&self) -> Result<(), GraphError> {
        for e in &self.edges {
            let (Some(from), Some(to)) = (self.node(e.from), self.node(e.to)) else {
                return Err(GraphError::DanglingEdge {
                    from: e.from,
                    to: e.to,
                });
            };
            let produced = from.kind.output_elems();
            let consumed = to.kind.input_elems();
            if produced != consumed {
                return Err(GraphError::ShapeMismatch {
                    from: e.from,
                    to: e.to,
                    produced,
                    consumed,
                });
            }
        }
        if self.topo_order().is_none() {
            return Err(GraphError::Cyclic);
        }
        Ok(())
    }
}

/// The DNN-inference graph of an [`Mlp`]: per layer an MVM plus (for
/// hidden layers) a P3 activation of matching width. Hidden stages
/// tolerate `hidden_bits` effective bits; the output layer demands
/// `output_bits` (classification margins live there).
pub fn dnn_graph(mlp: &Mlp, hidden_bits: f64, output_bits: f64) -> WorkGraph {
    let mut ops = Vec::new();
    let n_layers = mlp.layers.len();
    for (li, layer) in mlp.layers.iter().enumerate() {
        let last = li + 1 == n_layers;
        ops.push((
            OpKind::Mvm {
                rows: layer.out_dim(),
                cols: layer.in_dim(),
            },
            if last { output_bits } else { hidden_bits },
        ));
        if !last {
            ops.push((
                OpKind::Nonlinear {
                    width: layer.out_dim(),
                },
                hidden_bits,
            ));
        }
    }
    WorkGraph::chain("dnn-inference", &ops)
}

/// The Table-1 intrusion-detection shape: digital framing, a sliding
/// correlation against the signature, and a threshold compare.
pub fn correlation_graph(window: usize, pattern_len: usize, bits: f64) -> WorkGraph {
    assert!(
        pattern_len >= 1 && window >= pattern_len,
        "window must cover the pattern"
    );
    let scores = window + 1 - pattern_len;
    WorkGraph::chain(
        "correlation-detect",
        &[
            (
                OpKind::Digital {
                    input_len: window,
                    output_len: window,
                    macs: window as u64,
                },
                bits,
            ),
            (
                OpKind::Correlate {
                    pattern_len,
                    window,
                },
                bits,
            ),
            (OpKind::Compare { width: scores }, bits),
        ],
    )
}

/// The Table-1 IP-routing shape: a photonic block match followed by a
/// one-value digital decision.
pub fn pattern_match_graph(pattern_len: usize, bits: f64) -> WorkGraph {
    WorkGraph::chain(
        "pattern-match",
        &[
            (OpKind::Match { pattern_len }, bits),
            (
                OpKind::Digital {
                    input_len: 1,
                    output_len: 1,
                    macs: 8,
                },
                bits,
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_photonics::SimRng;

    #[test]
    fn chain_shapes_and_volumes() {
        let g = WorkGraph::chain(
            "t",
            &[
                (OpKind::Mvm { rows: 6, cols: 4 }, 4.0),
                (OpKind::Nonlinear { width: 6 }, 4.0),
            ],
        );
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        g.validate().expect("valid chain");
        assert_eq!(g.total_macs(), 24 + 6);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let g = WorkGraph::chain(
            "bad",
            &[
                (OpKind::Mvm { rows: 6, cols: 4 }, 4.0),
                (OpKind::Nonlinear { width: 5 }, 4.0),
            ],
        );
        match g.validate() {
            Err(GraphError::ShapeMismatch {
                produced, consumed, ..
            }) => {
                assert_eq!((produced, consumed), (6, 5));
            }
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cycle_is_rejected() {
        let mut g = WorkGraph::new("cyc");
        let a = g.add_op(OpKind::Nonlinear { width: 4 }, 4.0);
        let b = g.add_op(OpKind::Nonlinear { width: 4 }, 4.0);
        g.connect(a, b);
        g.connect(b, a);
        assert_eq!(g.validate(), Err(GraphError::Cyclic));
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_edges() {
        let mut g = WorkGraph::new("diamond");
        let a = g.add_op(
            OpKind::Digital {
                input_len: 1,
                output_len: 1,
                macs: 1,
            },
            4.0,
        );
        let b = g.add_op(
            OpKind::Digital {
                input_len: 1,
                output_len: 1,
                macs: 1,
            },
            4.0,
        );
        let c = g.add_op(
            OpKind::Digital {
                input_len: 1,
                output_len: 1,
                macs: 1,
            },
            4.0,
        );
        let d = g.add_op(
            OpKind::Digital {
                input_len: 1,
                output_len: 1,
                macs: 1,
            },
            4.0,
        );
        g.connect(a, b);
        g.connect(a, c);
        g.connect(b, d);
        g.connect(c, d);
        let order = g.topo_order().expect("acyclic");
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dnn_graph_mirrors_mlp_structure() {
        let mut rng = SimRng::seed_from_u64(1);
        let mlp = Mlp::new_random(&[4, 6, 3], &mut rng);
        let g = dnn_graph(&mlp, 4.0, 6.0);
        // Two layers: mvm, nonlinear, mvm.
        assert_eq!(g.nodes.len(), 3);
        g.validate().expect("dnn chain is well shaped");
        assert_eq!(g.nodes[0].kind, OpKind::Mvm { rows: 6, cols: 4 });
        assert_eq!(g.nodes[1].kind, OpKind::Nonlinear { width: 6 });
        assert_eq!(g.nodes[2].kind, OpKind::Mvm { rows: 3, cols: 6 });
        assert_eq!(g.nodes[2].min_bits, 6.0);
        // IR MAC count matches the model's own accounting (activations
        // are counted as one op per element on top of the MLP MACs).
        assert_eq!(g.total_macs(), mlp.macs_per_inference() + 6);
    }

    #[test]
    fn table1_builders_validate() {
        correlation_graph(64, 16, 4.0).validate().expect("corr");
        pattern_match_graph(32, 3.0).validate().expect("match");
    }

    #[test]
    fn primitive_mapping_covers_photonic_ops() {
        use ofpc_engine::Primitive as P;
        assert_eq!(
            OpKind::Mvm { rows: 1, cols: 1 }.primitive(),
            Some(P::VectorDotProduct)
        );
        assert_eq!(
            OpKind::Correlate {
                pattern_len: 4,
                window: 8
            }
            .primitive(),
            Some(P::PatternMatching)
        );
        assert_eq!(
            OpKind::Nonlinear { width: 1 }.primitive(),
            Some(P::NonlinearFunction)
        );
        assert_eq!(
            OpKind::Digital {
                input_len: 1,
                output_len: 1,
                macs: 1
            }
            .primitive(),
            None
        );
    }
}
