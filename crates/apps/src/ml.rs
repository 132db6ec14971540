//! Machine-learning inference (Table 1, class C1).
//!
//! The Fig.-1 "image recognition" application end-to-end: a synthetic
//! glyph-classification dataset, from-scratch MLP training (softmax +
//! SGD backprop), and photonic inference through the P1/P3 engine — with
//! the photonics-aware training loop the paper's §4 calls for ("new
//! algorithms to mitigate photonic noise during computation and achieve
//! high accuracy"): train against the *measured* activation transfer
//! curve at the deployment scale, so the analog engine executes the same
//! function it was trained with. Experiment E10 ablates exactly this.

use ofpc_engine::dnn::{argmax, interp_curve, Mlp, PhotonicDnn};
use ofpc_engine::mvm::PhotonicMatVec;
use ofpc_engine::nonlinear::NonlinearUnit;
use ofpc_photonics::SimRng;

/// A labelled image dataset (row-major pixels in `[0,1]`).
#[derive(Debug, Clone)]
pub struct Dataset {
    pub images: Vec<Vec<f64>>,
    pub(crate) labels: Vec<usize>,
    pub(crate) side: usize,
    pub classes: usize,
}

impl Dataset {
    pub fn len(&self) -> usize {
        self.images.len()
    }

    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// Glyph classes of the synthetic dataset.
const GLYPHS: usize = 4;

/// Generate a synthetic glyph dataset: `n_per_class` examples of each of
/// four 8×8 glyphs (horizontal bar, vertical bar, main diagonal, cross),
/// with ±1-pixel position jitter and additive pixel noise. Deterministic
/// per seed; no external data needed (repro substitution for MNIST-class
/// workloads).
pub fn synthetic_glyphs(n_per_class: usize, noise: f64, rng: &mut SimRng) -> Dataset {
    let side = 8;
    let mut images = Vec::with_capacity(n_per_class * GLYPHS);
    let mut labels = Vec::with_capacity(n_per_class * GLYPHS);
    for class in 0..GLYPHS {
        for _ in 0..n_per_class {
            let jitter = rng.below(3) as i32 - 1;
            let mut img = vec![0.0f64; side * side];
            for i in 0..side {
                for j in 0..side {
                    let row_hit = i as i32 == (side as i32 / 2 + jitter);
                    let col_hit = j as i32 == (side as i32 / 2 + jitter);
                    let diag_hit = (i as i32 - j as i32 - jitter).abs() <= 0;
                    let lit = match class {
                        0 => row_hit,
                        1 => col_hit,
                        2 => diag_hit,
                        _ => row_hit || col_hit,
                    };
                    let base = if lit { 1.0 } else { 0.0 };
                    img[i * side + j] = (base + rng.normal(0.0, noise)).clamp(0.0, 1.0);
                }
            }
            images.push(img);
            labels.push(class);
        }
    }
    // Shuffle example order (deterministically) so SGD sees mixed classes.
    let mut idx: Vec<usize> = (0..images.len()).collect();
    rng.shuffle(&mut idx);
    Dataset {
        images: idx.iter().map(|&i| images[i].clone()).collect(),
        labels: idx.iter().map(|&i| labels[i]).collect(),
        side,
        classes: GLYPHS,
    }
}

/// The activation used during training.
#[derive(Debug, Clone)]
pub enum TrainActivation {
    /// Standard ReLU (photonics-unaware baseline).
    Relu,
    /// The measured photonic transfer curve, evaluated at `z / scale` —
    /// exactly the function `PhotonicDnn` executes at inference.
    ScaledCurve { curve: Vec<(f64, f64)>, scale: f64 },
}

impl TrainActivation {
    fn eval(&self, z: f64) -> f64 {
        match self {
            TrainActivation::Relu => z.max(0.0),
            TrainActivation::ScaledCurve { curve, scale } => {
                interp_curve(curve, (z / scale).clamp(0.0, 1.0))
            }
        }
    }

    /// Derivative (numeric secant for the measured curve).
    fn deriv(&self, z: f64) -> f64 {
        match self {
            TrainActivation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            TrainActivation::ScaledCurve { curve, scale } => {
                let h = 0.01 * scale;
                let secant = (self.eval_curve_at(curve, *scale, z + h)
                    - self.eval_curve_at(curve, *scale, z - h))
                    / (2.0 * h);
                // Floor the gradient below the knee (straight-through
                // style) so units in the curve's dead zone keep
                // learning; evaluation stays exact.
                secant.max(0.05)
            }
        }
    }

    fn eval_curve_at(&self, curve: &[(f64, f64)], scale: f64, z: f64) -> f64 {
        interp_curve(curve, (z / scale).clamp(0.0, 1.0))
    }
}

/// SGD passes over the training set.
const TRAIN_EPOCHS: usize = 30;

/// SGD step size.
const LEARNING_RATE: f64 = 0.05;

/// Train an MLP with softmax cross-entropy SGD (30 epochs at a learning
/// rate of 0.05). `sizes` must start at `side²` and end at `classes`.
/// Returns the trained network.
pub fn train_mlp(sizes: &[usize], data: &Dataset, act: &TrainActivation, rng: &mut SimRng) -> Mlp {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert_eq!(sizes[0], data.side * data.side, "input size mismatch");
    assert_eq!(*sizes.last().unwrap(), data.classes, "output size mismatch");
    let mut mlp = Mlp::new_random(sizes, rng);
    for _ in 0..TRAIN_EPOCHS {
        for (x, &label) in data.images.iter().zip(&data.labels) {
            sgd_step(&mut mlp, x, label, LEARNING_RATE, act);
        }
    }
    mlp
}

/// One SGD step (forward with cached activations, softmax CE backward).
fn sgd_step(mlp: &mut Mlp, x: &[f64], label: usize, lr: f64, act: &TrainActivation) {
    let n_layers = mlp.layers.len();
    // Forward, caching inputs (a) and pre-activations (z) per layer.
    let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
    let mut zs: Vec<Vec<f64>> = Vec::with_capacity(n_layers);
    for (li, layer) in mlp.layers.iter().enumerate() {
        let a = acts.last().expect("non-empty");
        let z: Vec<f64> = layer
            .weights
            .iter()
            .zip(&layer.bias)
            .map(|(row, b)| row.iter().zip(a).map(|(w, v)| w * v).sum::<f64>() + b)
            .collect();
        let out = if li + 1 < n_layers {
            z.iter().map(|&v| act.eval(v)).collect()
        } else {
            z.clone()
        };
        zs.push(z);
        acts.push(out);
    }
    // Softmax cross-entropy gradient at the output.
    let logits = acts.last().expect("non-empty");
    let max = logits.iter().cloned().fold(f64::MIN, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    let mut delta: Vec<f64> = exps.iter().map(|e| e / sum).collect();
    delta[label] -= 1.0;
    // Backward.
    for li in (0..n_layers).rev() {
        let a_in = acts[li].clone();
        let next_delta: Vec<f64> = if li > 0 {
            let layer = &mlp.layers[li];
            (0..layer.in_dim())
                .map(|j| {
                    let back: f64 = layer
                        .weights
                        .iter()
                        .zip(&delta)
                        .map(|(row, d)| row[j] * d)
                        .sum();
                    back * act.deriv(zs[li - 1][j])
                })
                .collect()
        } else {
            Vec::new()
        };
        let layer = &mut mlp.layers[li];
        for (row, (&d, b)) in layer
            .weights
            .iter_mut()
            .zip(delta.iter().zip(&mut layer.bias))
        {
            for (w, &a) in row.iter_mut().zip(&a_in) {
                *w -= lr * d * a;
            }
            *b -= lr * d;
        }
        delta = next_delta;
    }
}

/// Digital accuracy of `mlp` over `data` (ReLU hidden activations).
pub fn accuracy_digital(mlp: &Mlp, data: &Dataset) -> f64 {
    let correct = data
        .images
        .iter()
        .zip(&data.labels)
        .filter(|(x, &y)| mlp.predict_digital(x) == y)
        .count();
    correct as f64 / data.len() as f64
}

/// Digital accuracy under an arbitrary training activation (used to
/// evaluate curve-trained networks consistently).
pub fn accuracy_with_activation(mlp: &Mlp, data: &Dataset, act: &TrainActivation) -> f64 {
    let n_layers = mlp.layers.len();
    let correct = data
        .images
        .iter()
        .zip(&data.labels)
        .filter(|(x, &y)| {
            let mut a: Vec<f64> = (*x).clone();
            for (li, layer) in mlp.layers.iter().enumerate() {
                let z: Vec<f64> = layer
                    .weights
                    .iter()
                    .zip(&layer.bias)
                    .map(|(row, b)| row.iter().zip(&a).map(|(w, v)| w * v).sum::<f64>() + b)
                    .collect();
                a = if li + 1 < n_layers {
                    z.iter().map(|&v| act.eval(v)).collect()
                } else {
                    z
                };
            }
            argmax(&a) == y
        })
        .count();
    correct as f64 / data.len() as f64
}

/// Photonic accuracy of a bound network over `data`.
pub fn accuracy_photonic(pdnn: &mut PhotonicDnn, data: &Dataset) -> f64 {
    let correct = data
        .images
        .iter()
        .zip(&data.labels)
        .filter(|(x, &y)| pdnn.predict(x) == y)
        .count();
    correct as f64 / data.len() as f64
}

/// Build the photonics-aware deployment of a curve-trained network: the
/// engine runs with exactly the training scale.
pub fn deploy_curve_trained(mlp: &Mlp, scale: f64, lanes: usize, rng: &mut SimRng) -> PhotonicDnn {
    let mut engine = PhotonicMatVec::new(ofpc_engine::dot::DotUnitConfig::ideal(), lanes, rng);
    engine.calibrate(64);
    let act = NonlinearUnit::ideal();
    let hidden = mlp.layers.len().saturating_sub(1);
    PhotonicDnn::with_act_scales(mlp, engine, act, vec![scale; hidden])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_data(rng: &mut SimRng) -> (Dataset, Dataset) {
        let train = synthetic_glyphs(30, 0.08, rng);
        let test = synthetic_glyphs(10, 0.08, rng);
        (train, test)
    }

    #[test]
    fn dataset_shape_and_determinism() {
        let mut r1 = SimRng::seed_from_u64(1);
        let mut r2 = SimRng::seed_from_u64(1);
        let d1 = synthetic_glyphs(5, 0.1, &mut r1);
        let d2 = synthetic_glyphs(5, 0.1, &mut r2);
        assert_eq!(d1.images, d2.images);
        assert_eq!(d1.len(), 20);
        assert_eq!(d1.classes, 4);
        assert!(d1
            .images
            .iter()
            .flatten()
            .all(|&p| (0.0..=1.0).contains(&p)));
        // All four classes present.
        let mut seen = [false; 4];
        for &l in &d1.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn relu_training_learns_the_glyphs() {
        let mut rng = SimRng::seed_from_u64(2);
        let (train, test) = small_data(&mut rng);
        let mlp = train_mlp(&[64, 16, 4], &train, &TrainActivation::Relu, &mut rng);
        let acc = accuracy_digital(&mlp, &test);
        assert!(acc >= 0.9, "test accuracy {acc}");
    }

    #[test]
    fn curve_training_learns_too() {
        let mut rng = SimRng::seed_from_u64(3);
        let (train, test) = small_data(&mut rng);
        let curve = NonlinearUnit::ideal().transfer_curve(64);
        let act = TrainActivation::ScaledCurve { curve, scale: 4.0 };
        let mlp = train_mlp(&[64, 16, 4], &train, &act, &mut rng);
        let acc = accuracy_with_activation(&mlp, &test, &act);
        assert!(acc >= 0.85, "curve-trained accuracy {acc}");
    }

    #[test]
    fn photonic_inference_of_curve_trained_net_matches_training_accuracy() {
        // The §4 noise-mitigation claim in miniature: train against the
        // measured activation at a fixed scale, deploy at that scale,
        // and photonic accuracy tracks digital accuracy.
        let mut rng = SimRng::seed_from_u64(4);
        let (train, test) = small_data(&mut rng);
        let curve = NonlinearUnit::ideal().transfer_curve(64);
        let scale = 4.0;
        let act = TrainActivation::ScaledCurve {
            curve: curve.clone(),
            scale,
        };
        let mlp = train_mlp(&[64, 16, 4], &train, &act, &mut rng);
        let digital = accuracy_with_activation(&mlp, &test, &act);
        let mut pdnn = deploy_curve_trained(&mlp, scale, 4, &mut rng);
        let photonic = accuracy_photonic(&mut pdnn, &test);
        assert!(
            photonic >= digital - 0.1,
            "photonic {photonic} vs digital {digital}"
        );
        assert!(photonic >= 0.75, "photonic accuracy {photonic}");
    }

    #[test]
    fn training_activations_derivatives_are_sane() {
        let relu = TrainActivation::Relu;
        assert_eq!(relu.eval(-1.0), 0.0);
        assert_eq!(relu.eval(2.0), 2.0);
        assert_eq!(relu.deriv(1.0), 1.0);
        assert_eq!(relu.deriv(-1.0), 0.0);
        let curve = vec![(0.0, 0.0), (1.0, 1.0)];
        let sc = TrainActivation::ScaledCurve { curve, scale: 2.0 };
        // Linear curve at scale 2: f(z) = z/2 on [0,2].
        assert!((sc.eval(1.0) - 0.5).abs() < 1e-9);
        assert!((sc.deriv(1.0) - 0.5).abs() < 1e-3);
        // Saturated region keeps only the training-time gradient floor.
        assert!((sc.deriv(5.0) - 0.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_rejects_empty_data() {
        let mut rng = SimRng::seed_from_u64(0);
        let empty = Dataset {
            images: vec![],
            labels: vec![],
            side: 8,
            classes: 4,
        };
        train_mlp(&[64, 4, 4], &empty, &TrainActivation::Relu, &mut rng);
    }
}
