//! Differential kernel-test harness: the vectorized (power-domain)
//! photonics kernels against the scalar reference implementations.
//!
//! The backend contract (DESIGN.md §12) makes two claims, each pinned
//! here over large seeded-random input sets:
//!
//! 1. **Noiseless equivalence** — with every noise process off, the two
//!    backends agree to the documented converter-quantization bound
//!    (at most one ADC LSB of readout straddle, `n/(2^bits − 1)`).
//! 2. **Noisy equivalence** — with noise on, the backends draw from
//!    different (seeded, replay-stable) streams but the same physical
//!    distributions, so their statistics agree.
//!
//! Plus the parallel contract: batches run on either backend are
//! byte-identical across 1/2/8 `ofpc-par` workers.

use ofpc_engine::batch::{BatchEngine, KernelSpec};
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig, KernelBackend};
use ofpc_par::WorkerPool;
use ofpc_photonics::modulator::MzmConfig;
use ofpc_photonics::signal::{AnalogWaveform, OpticalField};
use ofpc_photonics::{Complex, SimRng};

/// A calibrated unit on the given backend, from the given seed.
fn unit(config: DotUnitConfig, backend: KernelBackend, seed: u64) -> DotProductUnit {
    let mut cfg = config;
    cfg.backend = backend;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut u = DotProductUnit::new(cfg, &mut rng);
    u.calibrate(256);
    u
}

/// A random operand vector mixing interior values with the edge cases
/// the converters care about: exact 0/1, sub-LSB residuals, and values
/// sitting on encode-rounding boundaries.
fn random_operand(rng: &mut SimRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => 1.0,
            2 => 1e-7,                                    // far below one 12-bit LSB
            3 => (rng.below(4095) as f64 + 0.5) / 4095.0, // rounding boundary
            _ => rng.uniform(),
        })
        .collect()
}

// ---------------------------------------------------- noiseless diff

/// Shared body: scalar and vectorized units on a noiseless config must
/// agree within one ADC readout LSB (`n/(2^bits − 1)`) over thousands
/// of seeded random vectors.
fn differential_noiseless(config: DotUnitConfig, vectors: usize, tag: &str) {
    let mut scalar = unit(config.clone(), KernelBackend::Scalar, 7);
    let mut vector = unit(config, KernelBackend::Vectorized, 7);
    let mut rng = SimRng::seed_from_u64(0xD1FF);
    let mut exact = 0usize;
    for i in 0..vectors {
        let n = 1 + rng.below(48);
        let a = random_operand(&mut rng, n);
        let b = random_operand(&mut rng, n);
        let s = scalar.dot_nonneg(&a, &b);
        let v = vector.dot_nonneg(&a, &b);
        // One 12-bit readout LSB: the ulp-level difference between the
        // fused and the round-trip transfer can push the single ADC
        // readout across at most one code boundary.
        let lsb = n as f64 / 4095.0;
        assert!(
            (s - v).abs() <= lsb * 1.000_001,
            "{tag}: vector {i} (n={n}) diverged past one LSB: scalar {s} vectorized {v}"
        );
        if s == v {
            exact += 1;
        }
    }
    // The LSB bound is a straddle allowance, not the norm: the vast
    // majority of readouts must land on the same code.
    assert!(
        exact * 10 >= vectors * 9,
        "{tag}: only {exact}/{vectors} readouts were bit-exact"
    );
}

#[test]
fn ideal_backends_agree_within_one_readout_lsb_over_10k_vectors() {
    differential_noiseless(DotUnitConfig::ideal(), 10_000, "ideal");
}

#[test]
fn finite_extinction_noiseless_backends_agree_within_one_readout_lsb() {
    // Lossy modulators with a finite extinction floor, but every noise
    // process off: the floor max() in the fused transfer must match the
    // scalar sign-preserving floor bit-for-bit through the whole chain.
    let mut config = DotUnitConfig::ideal();
    config.mzm_a = MzmConfig::default();
    config.mzm_b = MzmConfig::default();
    differential_noiseless(config, 2_000, "finite-er");
}

#[test]
fn signed_backends_agree_within_four_readout_lsbs() {
    // Signed dots are four readouts; worst case each straddles a code.
    let mut scalar = unit(DotUnitConfig::ideal(), KernelBackend::Scalar, 11);
    let mut vector = unit(DotUnitConfig::ideal(), KernelBackend::Vectorized, 11);
    let mut rng = SimRng::seed_from_u64(0x51CED);
    for i in 0..2_000 {
        let n = 1 + rng.below(32);
        let a: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let s = scalar.dot_signed(&a, &b);
        let v = vector.dot_signed(&a, &b);
        let bound = 4.0 * n as f64 / 4095.0 * 1.000_001;
        assert!(
            (s - v).abs() <= bound,
            "vector {i} (n={n}): scalar {s} vectorized {v}"
        );
    }
}

// ------------------------------------------------------- noisy diff

#[test]
fn realistic_backends_agree_statistically() {
    // Full realistic noise on both backends: different streams, same
    // distributions. Compare run means against each other and the true
    // value over enough repeats to average the noise down.
    let mut scalar = unit(DotUnitConfig::realistic(), KernelBackend::Scalar, 3);
    let mut vector = unit(DotUnitConfig::realistic(), KernelBackend::Vectorized, 3);
    let n = 64;
    let a = vec![0.5; 64];
    let b = vec![0.25; 64];
    let want = 0.5 * 0.25 * n as f64;
    let reps = 400;
    let mean = |u: &mut DotProductUnit| -> f64 {
        (0..reps).map(|_| u.dot_nonneg(&a, &b)).sum::<f64>() / reps as f64
    };
    let ms = mean(&mut scalar);
    let mv = mean(&mut vector);
    // 8-bit converters put one readout LSB at n/255 ≈ 0.25; means must
    // sit within ~2 LSBs of truth and within 1 LSB of each other.
    let lsb = n as f64 / 255.0;
    assert!(
        (ms - want).abs() < 2.0 * lsb,
        "scalar mean {ms} want {want}"
    );
    assert!(
        (mv - want).abs() < 2.0 * lsb,
        "vectorized mean {mv} want {want}"
    );
    assert!(
        (ms - mv).abs() < lsb,
        "backend means diverged: scalar {ms} vectorized {mv}"
    );
}

// ------------------------------------------------ fused invariants

#[test]
fn fused_pipeline_preserves_phase_and_scales_power() {
    // A block through the (noiseless, unbuffered-drive) weight MZM must
    // keep every sample's phase and scale its power by exactly the
    // transfer the modulator reports.
    let config = MzmConfig {
        bandwidth_hz: 0.0, // drive passthrough
        ..MzmConfig::default()
    };
    let mut mzm = ofpc_photonics::modulator::MachZehnderModulator::new(config.clone());
    let mut rng = SimRng::seed_from_u64(0xB10C);
    for _ in 0..2_000 {
        let n = 1 + rng.below(16);
        let samples: Vec<Complex> = (0..n)
            .map(|_| Complex::from_polar(rng.uniform() + 1e-6, rng.uniform_range(-3.0, 3.0)))
            .collect();
        let field = OpticalField {
            samples,
            sample_rate_hz: 32e9,
            wavelength_m: 1550e-9,
        };
        let drive = AnalogWaveform::new(
            (0..n)
                .map(|_| mzm.drive_for_transmission(rng.uniform()))
                .collect(),
            32e9,
        );
        let out = mzm.modulate(&field, &drive);
        for k in 0..n {
            let t = mzm.amplitude_transmission(drive.samples[k]);
            let want = field.samples[k].scale(t);
            assert_eq!(out.samples[k].re.to_bits(), want.re.to_bits(), "re at {k}");
            assert_eq!(out.samples[k].im.to_bits(), want.im.to_bits(), "im at {k}");
            // t ≥ 0 here, so the phase is untouched and power scales by t².
            assert!(t >= 0.0);
            let phase_before = field.samples[k].arg();
            let phase_after = out.samples[k].arg();
            assert!(
                (phase_before - phase_after).abs() < 1e-12,
                "phase drifted at {k}"
            );
        }
    }
}

#[test]
fn extinction_null_blocks_keep_their_leakage_floor() {
    // Driving for zero transmission with a finite extinction ratio must
    // leave the documented leakage floor, identically in the fused
    // block path and the scalar transfer.
    let config = MzmConfig {
        bandwidth_hz: 0.0,
        ..MzmConfig::default()
    };
    let mzm = ofpc_photonics::modulator::MachZehnderModulator::new(config);
    let t_null = mzm.fused_amplitude_transmission(0.0);
    let (floor, il) = mzm.fused_amplitude_constants();
    assert!(t_null > 0.0, "finite ER must leak at the null");
    assert_eq!(t_null.to_bits(), (floor * il).to_bits());
    // And the block transfer agrees at the null code.
    let mut out = Vec::new();
    mzm.power_transmissions_into(&[0.0, 0.0, 0.0], 32e9, &mut out);
    for t2 in out {
        assert_eq!(t2.to_bits(), (t_null * t_null).to_bits());
    }
}

// ------------------------------------------------------- parallelism

#[test]
fn batches_are_byte_identical_across_worker_counts_on_both_backends() {
    let batch = || {
        let sig = vec![true, false, true, true, false, false, true, false];
        let mut stream = vec![false; 40];
        stream[16..24].copy_from_slice(&sig);
        vec![
            KernelSpec::MvmNonneg {
                matrix: vec![vec![0.5, 0.25], vec![1.0, 0.0]],
                x: vec![0.5, 1.0],
                lanes: 2,
            },
            KernelSpec::MvmSigned {
                matrix: vec![vec![0.5, -0.5], vec![-0.25, 1.0]],
                x: vec![1.0, 0.5],
                lanes: 2,
            },
            KernelSpec::Correlate {
                signatures: vec![sig.clone()],
                stream,
                tolerance: 0.5,
                stride: 8,
            },
            KernelSpec::MatchBlock {
                data: sig.clone(),
                pattern: sig,
            },
        ]
    };
    for backend in [KernelBackend::Scalar, KernelBackend::Vectorized] {
        let engine = BatchEngine::realistic(42).with_backend(backend);
        let bytes = |workers: usize| {
            let out = engine.execute(&WorkerPool::new(workers), batch());
            serde_json::to_string_pretty(&out).expect("serializes")
        };
        let seq = bytes(1);
        assert_eq!(seq, bytes(2), "{backend:?}: 1 vs 2 workers diverged");
        assert_eq!(seq, bytes(8), "{backend:?}: 1 vs 8 workers diverged");
    }
}
