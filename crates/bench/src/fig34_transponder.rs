//! E3 — the compute transponder (Fig. 4) against a conventional
//! accelerator's conversions.
//!
//! Drives real optical-field frames through the photonic compute
//! transponder and reports:
//!
//! * through-path integrity (frames survive the photonic engine),
//! * the added in-node latency of on-fiber computing,
//! * the §2.2 claim that on-fiber computing avoids per-element DAC/ADC
//!   conversions: the transponder's own energy ledger against the DAC/ADC
//!   bill of a "conventional photonic accelerator" receive chain
//!   (Lightning-style: full RX with an ADC every sample, a DAC per
//!   element back into a photonic core, and a result ADC), computed from
//!   the per-sample energy constants.

use crate::table::{versioned_pretty, Table};
use ofpc_par::WorkerPool;
use ofpc_photonics::energy::constants;
use ofpc_photonics::SimRng;
use ofpc_transponder::compute::{
    decode_result, ComputeOp, ComputeResult, PhotonicComputeTransponder,
};
use ofpc_transponder::frame::Frame;
use serde::Serialize;

#[derive(Serialize)]
struct E3Row {
    payload_bytes: usize,
    operand_len: usize,
    on_fiber_added_latency_ns: f64,
    on_fiber_engine_energy_j: f64,
    conventional_conversion_energy_j: f64,
    conversion_savings_x: f64,
}

#[derive(Serialize, Default)]
struct E3Result {
    rows: Vec<E3Row>,
    frames_ok: usize,
    frames_total: usize,
    dot_result_error: f64,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E3: compute transponder (Fig. 4) vs conventional accelerator DAC/ADC costs\n");
    let mut result = E3Result::default();

    let mut t = Table::new(
        "on-fiber compute vs conventional accelerator conversions",
        &[
            "payload B",
            "operands",
            "added ns",
            "engine J",
            "conv. J (DAC/ADC)",
            "savings ×",
        ],
    );

    for &(payload, n_ops) in &[(64usize, 16usize), (256, 64), (1024, 256), (1500, 512)] {
        let mut rng = SimRng::seed_from_u64(100 + n_ops as u64);
        // Ideal (noiseless) devices so results are exact, but with
        // realistic per-operation energy so the ledger comparison is
        // meaningful.
        let mut cfg = ofpc_transponder::compute::ComputeTransponderConfig::ideal();
        cfg.weight_mzm.drive_energy_j = 50e-15;
        cfg.result_adc_energy_j = constants::ADC_SAMPLE_J;
        let mut tp = PhotonicComputeTransponder::new(cfg, &mut rng);
        let one = tp.tx.one_level_w();
        tp.calibrate(one);
        let weights: Vec<f64> = (0..n_ops).map(|i| (i % 7) as f64 / 7.0).collect();
        tp.load_op(ComputeOp::DotProduct {
            weights: weights.clone(),
        });
        let operands: Vec<f64> = (0..n_ops).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
        let frame = Frame::compute(1, vec![0u8; payload]);
        let field = tp.transmit_compute_frame(&frame, &operands);
        let out = tp.process(&field).expect("frame must parse");
        result.frames_total += 1;
        if out.computed.is_some() {
            result.frames_ok += 1;
        }
        if let Some(ComputeResult::Dot(v)) = out.computed {
            let exact: f64 = operands.iter().zip(&weights).map(|(a, w)| a * w).sum();
            result.dot_result_error = result
                .dot_result_error
                .max((v - exact).abs() / exact.max(1e-9));
            let decoded = decode_result(out.frame.result);
            assert!((decoded - v).abs() < 1e-3, "in-band result field mismatch");
        }

        // Conventional accelerator conversion bill for the same op:
        // ADC per received sample (frame + operands) + DAC per operand
        // into the photonic core + one result ADC.
        let total_samples = frame.line_bits() + n_ops;
        let conventional = total_samples as f64 * constants::ADC_SAMPLE_J
            + n_ops as f64 * constants::DAC_SAMPLE_J
            + constants::ADC_SAMPLE_J;
        // On-fiber conversion bill from the device ledger: weight
        // modulator drives + the single result ADC. PD/TIA static power
        // and TX regeneration exist in both designs and are excluded
        // from both sides.
        let ledger = tp.energy_ledger();
        let engine = ledger.get("engine-weight-mzm") + ledger.get("engine-result-adc");
        let row = E3Row {
            payload_bytes: payload,
            operand_len: n_ops,
            on_fiber_added_latency_ns: out.added_latency_s * 1e9,
            on_fiber_engine_energy_j: engine,
            conventional_conversion_energy_j: conventional,
            conversion_savings_x: conventional / engine.max(1e-30),
        };
        t.row(&[
            payload.to_string(),
            n_ops.to_string(),
            format!("{:.1}", row.on_fiber_added_latency_ns),
            format!("{:.2e}", row.on_fiber_engine_energy_j),
            format!("{:.2e}", row.conventional_conversion_energy_j),
            format!("{:.0}", row.conversion_savings_x),
        ]);
        result.rows.push(row);
    }
    t.print();

    println!(
        "frames computed: {}/{}; worst dot-product relative error {:.3}",
        result.frames_ok, result.frames_total, result.dot_result_error
    );
    assert_eq!(result.frames_ok, result.frames_total);
    assert!(result.dot_result_error < 0.05);
    for row in &result.rows {
        assert!(
            row.conversion_savings_x > 10.0,
            "on-fiber must save ≥10× on conversions (got {}×)",
            row.conversion_savings_x
        );
        assert!(row.on_fiber_added_latency_ns < 1_000.0);
    }
    versioned_pretty(&result)
}
