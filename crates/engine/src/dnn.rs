//! Photonic deep neural network inference.
//!
//! Composes P1 (WDM matrix-vector multiply) and P3 (electro-optic
//! activation) into full DNN forward passes — the "all-optical deep
//! neural network inference" the paper's §2.1 points to via
//! Bandyopadhyay et al.'s single-chip photonic DNN.
//!
//! Design notes that mirror real photonic DNN deployments:
//!
//! * Weights are normalized per layer to `[-1, 1]` (the modulator's
//!   encoding range); the per-layer scale is re-applied digitally to the
//!   single integrated readout, which is cheap.
//! * Hidden activations are renormalized to `[0, 1]` between layers using
//!   a per-layer activation scale estimated from calibration inputs —
//!   this is exactly the "trained DNN models ... distributed across
//!   network devices in advance" metadata the paper's §4 mentions. The
//!   scaling is uniform and positive per layer, so argmax classification
//!   is unaffected.
//! * The photonic activation is *not* an exact ReLU; its measured
//!   transfer curve can be fed back into training (see
//!   [`PhotonicDnn::digital_twin_forward`]), which is the §4 "new
//!   algorithms to ... achieve high accuracy" knob that experiment E10
//!   ablates.

use crate::mvm::PhotonicMatVec;
use crate::nonlinear::NonlinearUnit;
use ofpc_photonics::SimRng;

/// One fully-connected layer, row-major weights: `weights[out][in]`.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    pub weights: Vec<Vec<f64>>,
    pub bias: Vec<f64>,
}

impl DenseLayer {
    pub fn out_dim(&self) -> usize {
        self.weights.len()
    }

    pub fn in_dim(&self) -> usize {
        self.weights.first().map_or(0, |r| r.len())
    }

    /// Largest absolute weight (for normalization).
    pub fn max_abs_weight(&self) -> f64 {
        self.weights
            .iter()
            .flatten()
            .fold(0.0f64, |m, &w| m.max(w.abs()))
    }
}

/// Piecewise-linear interpolation of a monotone sample curve; clamps
/// outside the sampled domain.
pub fn interp_curve(curve: &[(f64, f64)], x: f64) -> f64 {
    assert!(curve.len() >= 2, "interpolation needs at least two points");
    if x <= curve[0].0 {
        return curve[0].1;
    }
    if x >= curve[curve.len() - 1].0 {
        return curve[curve.len() - 1].1;
    }
    for w in curve.windows(2) {
        let ((x0, y0), (x1, y1)) = (w[0], w[1]);
        if x <= x1 {
            let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
            return y0 + t * (y1 - y0);
        }
    }
    curve[curve.len() - 1].1
}

/// A multi-layer perceptron (weights live in the digital domain; the
/// photonic engine executes them).
#[derive(Debug, Clone)]
pub struct Mlp {
    pub layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Random MLP with the given layer sizes (He-style init).
    pub fn new_random(sizes: &[usize], rng: &mut SimRng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs input and output sizes");
        let mut layers = Vec::new();
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let std = (2.0 / fan_in as f64).sqrt();
            let weights = (0..fan_out)
                .map(|_| (0..fan_in).map(|_| rng.normal(0.0, std)).collect())
                .collect();
            let bias = vec![0.0; fan_out];
            layers.push(DenseLayer { weights, bias });
        }
        Mlp { layers }
    }

    pub(crate) fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim())
    }

    /// Digital forward pass with ReLU hidden activations; the output
    /// layer is linear (logits).
    pub(crate) fn forward_digital(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut a = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z: Vec<f64> = layer
                .weights
                .iter()
                .zip(&layer.bias)
                .map(|(row, b)| row.iter().zip(&a).map(|(w, v)| w * v).sum::<f64>() + b)
                .collect();
            if li + 1 < self.layers.len() {
                for v in &mut z {
                    *v = v.max(0.0);
                }
            }
            a = z;
        }
        a
    }

    /// Digital argmax prediction.
    pub fn predict_digital(&self, x: &[f64]) -> usize {
        argmax(&self.forward_digital(x))
    }

    /// Total MACs in one forward pass.
    pub fn macs_per_inference(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.in_dim() * l.out_dim()) as u64)
            .sum()
    }
}

/// Index of the maximum element (first on ties). Panics on empty input.
pub fn argmax(v: &[f64]) -> usize {
    assert!(!v.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for i in 1..v.len() {
        if v[i] > v[best] {
            best = i;
        }
    }
    best
}

/// A DNN bound to photonic execution units.
#[derive(Debug)]
pub struct PhotonicDnn {
    /// Normalized weights (per-layer max-abs brought to 1).
    mlp: Mlp,
    /// Per-layer weight scales (multiply readouts back up).
    weight_scales: Vec<f64>,
    /// Per-layer activation scales (normalize hidden values to [0,1]).
    act_scales: Vec<f64>,
    engine: PhotonicMatVec,
    activation: NonlinearUnit,
}

impl PhotonicDnn {
    /// Bind `mlp` to photonic units, estimating per-layer activation
    /// scales from `calib_inputs` (digital dry runs). The scales travel
    /// with the model, as the paper's §4 prescribes for distributing
    /// trained models to network devices.
    pub fn new(
        mlp: &Mlp,
        engine: PhotonicMatVec,
        activation: NonlinearUnit,
        calib_inputs: &[Vec<f64>],
    ) -> Self {
        assert!(
            !calib_inputs.is_empty(),
            "need calibration inputs to estimate activation scales"
        );
        // Normalize weights per layer.
        let mut norm = mlp.clone();
        let mut weight_scales = Vec::new();
        for layer in &mut norm.layers {
            let s = layer.max_abs_weight().max(f64::MIN_POSITIVE);
            for row in &mut layer.weights {
                for w in row {
                    *w /= s;
                }
            }
            weight_scales.push(s);
        }
        // Estimate activation scales: the max |pre-activation| observed
        // per hidden layer over the calibration set (digital dry run on
        // the *original* network).
        let mut act_scales = vec![1.0f64; mlp.layers.len().saturating_sub(1)];
        for x in calib_inputs {
            let mut a = x.clone();
            for (li, layer) in mlp.layers.iter().enumerate() {
                let z: Vec<f64> = layer
                    .weights
                    .iter()
                    .zip(&layer.bias)
                    .map(|(row, b)| row.iter().zip(&a).map(|(w, v)| w * v).sum::<f64>() + b)
                    .collect();
                if li < act_scales.len() {
                    let peak = z.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                    act_scales[li] = act_scales[li].max(peak);
                    a = z.iter().map(|&v| v.max(0.0)).collect();
                } else {
                    a = z;
                }
            }
        }
        PhotonicDnn {
            mlp: norm,
            weight_scales,
            act_scales,
            engine,
            activation,
        }
    }

    /// Like [`PhotonicDnn::new`], but with caller-supplied activation
    /// scales (one per hidden layer) instead of calibration-set
    /// estimation. Photonics-aware training (E10) uses this so inference
    /// runs with *exactly* the scales the network was trained under.
    pub fn with_act_scales(
        mlp: &Mlp,
        engine: PhotonicMatVec,
        activation: NonlinearUnit,
        act_scales: Vec<f64>,
    ) -> Self {
        assert_eq!(
            act_scales.len(),
            mlp.layers.len().saturating_sub(1),
            "need one activation scale per hidden layer"
        );
        let mut norm = mlp.clone();
        let mut weight_scales = Vec::new();
        for layer in &mut norm.layers {
            let s = layer.max_abs_weight().max(f64::MIN_POSITIVE);
            for row in &mut layer.weights {
                for w in row {
                    *w /= s;
                }
            }
            weight_scales.push(s);
        }
        PhotonicDnn {
            mlp: norm,
            weight_scales,
            act_scales,
            engine,
            activation,
        }
    }

    /// Photonic forward pass. Hidden activations are computed by the P3
    /// unit on `[0,1]`-normalized values; the final layer returns logits
    /// (scaled by the product of layer scales, which preserves argmax).
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mlp.input_dim(), "input dimension mismatch");
        let mut a: Vec<f64> = x.iter().map(|&v| v.clamp(0.0, 1.0)).collect();
        let n_layers = self.mlp.layers.len();
        for li in 0..n_layers {
            let layer = &self.mlp.layers[li];
            let w_scale = self.weight_scales[li];
            // Photonic matvec on normalized weights; rescale the readout
            // and add the bias digitally (one scalar op per neuron).
            let weights = layer.weights.clone();
            let bias = layer.bias.clone();
            let raw = self.engine.mat_vec_signed(&weights, &a);
            let z: Vec<f64> = raw
                .iter()
                .zip(&bias)
                .map(|(v, b)| v * w_scale + b)
                .collect();
            if li + 1 < n_layers {
                let s = self.act_scales[li].max(f64::MIN_POSITIVE);
                a = z
                    .iter()
                    .map(|&v| self.activation.activate((v / s).clamp(0.0, 1.0)))
                    .collect();
            } else {
                a = z;
            }
        }
        a
    }

    /// Photonic argmax prediction.
    pub fn predict(&mut self, x: &[f64]) -> usize {
        argmax(&self.forward(x))
    }

    /// Exact digital replica of the photonic pipeline using a measured
    /// activation transfer `curve` in place of the analog P3 unit. This
    /// is the reference for validating photonic execution and the forward
    /// function for photonics-aware training (experiment E10).
    pub fn digital_twin_forward(&self, x: &[f64], curve: &[(f64, f64)]) -> Vec<f64> {
        assert_eq!(x.len(), self.mlp.input_dim(), "input dimension mismatch");
        let mut a: Vec<f64> = x.iter().map(|&v| v.clamp(0.0, 1.0)).collect();
        let n_layers = self.mlp.layers.len();
        for li in 0..n_layers {
            let layer = &self.mlp.layers[li];
            let w_scale = self.weight_scales[li];
            let z: Vec<f64> = layer
                .weights
                .iter()
                .zip(&layer.bias)
                .map(|(row, b)| row.iter().zip(&a).map(|(w, v)| w * v).sum::<f64>() * w_scale + b)
                .collect();
            if li + 1 < n_layers {
                let s = self.act_scales[li].max(f64::MIN_POSITIVE);
                a = z
                    .iter()
                    .map(|&v| interp_curve(curve, (v / s).clamp(0.0, 1.0)))
                    .collect();
            } else {
                a = z;
            }
        }
        a
    }

    /// Wall-clock latency of one inference, seconds.
    pub fn latency_s(&self) -> f64 {
        let mut total = 0.0;
        for (li, layer) in self.mlp.layers.iter().enumerate() {
            // Signed dot products take 4 passes.
            total += 4.0 * self.engine.latency_s(layer.out_dim(), layer.in_dim());
            if li + 1 < self.mlp.layers.len() {
                total += layer.out_dim() as f64 * self.activation.latency_s();
            }
        }
        total
    }

    /// Total energy spent so far across engine and activation.
    pub fn energy_ledger(&self) -> ofpc_photonics::energy::EnergyLedger {
        let mut ledger = self.engine.energy_ledger();
        ledger.merge(&self.activation.energy_ledger());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mlp(rng: &mut SimRng) -> Mlp {
        Mlp::new_random(&[4, 6, 3], rng)
    }

    #[test]
    fn digital_forward_shapes() {
        let mut rng = SimRng::seed_from_u64(1);
        let mlp = tiny_mlp(&mut rng);
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.macs_per_inference(), 4 * 6 + 6 * 3);
        let y = mlp.forward_digital(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn argmax_semantics() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0, 5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_rejects_empty() {
        argmax(&[]);
    }

    #[test]
    fn interp_curve_endpoints_and_midpoints() {
        let curve = vec![(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)];
        assert_eq!(interp_curve(&curve, -1.0), 0.0);
        assert_eq!(interp_curve(&curve, 2.0), 1.0);
        assert!((interp_curve(&curve, 0.25) - 0.1).abs() < 1e-12);
        assert!((interp_curve(&curve, 0.75) - 0.6).abs() < 1e-12);
    }

    fn build_photonic(mlp: &Mlp, calib: &[Vec<f64>]) -> PhotonicDnn {
        let engine = PhotonicMatVec::ideal(4);
        let act = NonlinearUnit::ideal();
        PhotonicDnn::new(mlp, engine, act, calib)
    }

    #[test]
    fn photonic_forward_produces_logits() {
        let mut rng = SimRng::seed_from_u64(2);
        let mlp = tiny_mlp(&mut rng);
        let calib: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..4).map(|_| rng.uniform()).collect())
            .collect();
        let mut pdnn = build_photonic(&mlp, &calib);
        let y = pdnn.forward(&[0.3, 0.6, 0.1, 0.9]);
        assert_eq!(y.len(), 3);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn photonic_execution_agrees_with_its_digital_twin() {
        // The photonic forward pass must track the digital replica that
        // uses the *measured* activation curve — that twin is the
        // reference for photonics-aware training (E10). Residual error
        // comes only from quantization and analog readout.
        let mut rng = SimRng::seed_from_u64(3);
        let mlp = tiny_mlp(&mut rng);
        let calib: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..4).map(|_| rng.uniform()).collect())
            .collect();
        let mut pdnn = build_photonic(&mlp, &calib);
        let curve = NonlinearUnit::ideal().transfer_curve(64);
        let mut confident = 0;
        for _ in 0..30 {
            let x: Vec<f64> = (0..4).map(|_| rng.uniform()).collect();
            let twin = pdnn.digital_twin_forward(&x, &curve);
            let phot = pdnn.forward(&x);
            // Logit-level tracking within the analog readout floor.
            for (t, p) in twin.iter().zip(&phot) {
                assert!((t - p).abs() < 0.01, "twin {twin:?} phot {phot:?}");
            }
            // Argmax must agree whenever the margin clears the floor.
            let mut sorted = twin.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            if sorted[0] - sorted[1] > 0.02 {
                confident += 1;
                assert_eq!(argmax(&phot), argmax(&twin));
            }
        }
        assert!(confident >= 3, "only {confident} confident samples");
    }

    #[test]
    fn latency_and_energy_are_positive() {
        let mut rng = SimRng::seed_from_u64(4);
        let mlp = tiny_mlp(&mut rng);
        let calib = vec![vec![0.5; 4]];
        let mut pdnn = build_photonic(&mlp, &calib);
        pdnn.forward(&[0.5; 4]);
        assert!(pdnn.latency_s() > 0.0);
    }

    #[test]
    fn weight_normalization_preserves_digital_argmax() {
        // Scaling weights per layer and rescaling readouts is exact in
        // the digital domain; verify via a hand-built network.
        let mlp = Mlp {
            layers: vec![
                DenseLayer {
                    weights: vec![vec![2.0, -4.0], vec![1.0, 3.0]],
                    bias: vec![0.1, -0.2],
                },
                DenseLayer {
                    weights: vec![vec![0.5, 1.5], vec![-2.5, 0.5]],
                    bias: vec![0.0, 0.0],
                },
            ],
        };
        let x = vec![0.8, 0.3];
        let digital = mlp.predict_digital(&x);
        let engine = PhotonicMatVec::ideal(2);
        let act = NonlinearUnit::ideal();
        let mut pdnn = PhotonicDnn::new(&mlp, engine, act, std::slice::from_ref(&x));
        assert_eq!(pdnn.predict(&x), digital);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_input_size() {
        let mut rng = SimRng::seed_from_u64(5);
        let mlp = tiny_mlp(&mut rng);
        mlp.forward_digital(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "calibration inputs")]
    fn rejects_empty_calibration_set() {
        let mut rng = SimRng::seed_from_u64(6);
        let mlp = tiny_mlp(&mut rng);
        let engine = PhotonicMatVec::ideal(1);
        let act = NonlinearUnit::ideal();
        PhotonicDnn::new(&mlp, engine, act, &[]);
    }
}
