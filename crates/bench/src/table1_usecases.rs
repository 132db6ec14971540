//! E4 — Table 1: every use-case row, end to end, with its displaced
//! baseline.
//!
//! For each of the paper's eight use cases we run the photonic
//! implementation and its "current compute location" baseline on the
//! same workload and report correctness plus the latency/energy deltas.
//! The *shape* to reproduce: the photonic path matches the baseline's
//! answers while cutting the compute-energy bill and (for the
//! cloud-served rows) the latency.

use crate::table::{versioned_pretty, Table};
use ofpc_apps::digital::{ComputeModel, Placement, RequestModel};
use ofpc_apps::encryption::{bits_of, DigitalCipher, PhotonicCipher};
use ofpc_apps::intrusion::{synthesize_traffic, AhoCorasick, PhotonicIds};
use ofpc_apps::iprouting::{random_rules, PhotonicLpm, TcamModel};
use ofpc_apps::loadbalance::{run_lb, Balancer};
use ofpc_apps::mimo::{measure_ser, Detector};
use ofpc_apps::ml::{
    accuracy_photonic, accuracy_with_activation, deploy_curve_trained, synthetic_glyphs, train_mlp,
    TrainActivation,
};
use ofpc_apps::video::{decode_frame, encode_frame, psnr, synthetic_frame, Transform};
use ofpc_engine::comparator::PhotonicComparator;
use ofpc_engine::mvm::PhotonicMatVec;
use ofpc_engine::nonlinear::NonlinearUnit;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Serialize)]
struct UseCaseRow {
    use_case: String,
    primitive: String,
    photonic_metric: String,
    baseline_metric: String,
    verdict: String,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E4: Table 1 — all use cases, photonic vs current compute location\n");
    let mut rows: Vec<UseCaseRow> = Vec::new();
    let mut t = Table::new(
        "Table 1 reproduction",
        &["use case", "prim", "photonic", "baseline", "verdict"],
    );
    let mut push = |r: UseCaseRow, t: &mut Table| {
        t.row(&[
            r.use_case.clone(),
            r.primitive.clone(),
            r.photonic_metric.clone(),
            r.baseline_metric.clone(),
            r.verdict.clone(),
        ]);
        rows.push(r);
    };

    // ---- C1.1 ML inference ----
    {
        let mut rng = SimRng::seed_from_u64(1);
        let train = synthetic_glyphs(30, &mut rng);
        let test = synthetic_glyphs(12, &mut rng);
        let curve = NonlinearUnit::ideal().transfer_curve(64);
        let act = TrainActivation::ScaledCurve { curve, scale: 4.0 };
        let mlp = train_mlp(&[64, 16, 4], &train, &act, &mut rng);
        let digital_acc = accuracy_with_activation(&mlp, &test, &act);
        let mut pdnn = deploy_curve_trained(&mlp, 4.0, &mut rng);
        let photonic_acc = accuracy_photonic(&mut pdnn, &test);
        push(
            UseCaseRow {
                use_case: "ML inference".into(),
                primitive: "P1+P3".into(),
                photonic_metric: format!("acc {photonic_acc:.2}"),
                baseline_metric: format!("acc {digital_acc:.2} (cloud TPU)"),
                verdict: if photonic_acc >= digital_acc - 0.1 {
                    "OK"
                } else {
                    "DEGRADED"
                }
                .into(),
            },
            &mut t,
        );
        assert!(photonic_acc >= digital_acc - 0.15);
    }

    // ---- C1.2 Video encoding ----
    {
        let mut rng = SimRng::seed_from_u64(2);
        let frame = synthetic_frame(&mut rng);
        let mut digital = Transform::Digital;
        let dec_d = decode_frame(&encode_frame(&frame, &mut digital));
        let psnr_d = psnr(&frame, &dec_d);
        let mut engine = PhotonicMatVec::ideal();
        let mut photonic = Transform::Photonic(&mut engine);
        let dec_p = decode_frame(&encode_frame(&frame, &mut photonic));
        let psnr_p = psnr(&frame, &dec_p);
        push(
            UseCaseRow {
                use_case: "Video encoding".into(),
                primitive: "P1".into(),
                photonic_metric: format!("PSNR {psnr_p:.1} dB"),
                baseline_metric: format!("PSNR {psnr_d:.1} dB (edge)"),
                verdict: if psnr_p > psnr_d - 3.0 {
                    "OK"
                } else {
                    "DEGRADED"
                }
                .into(),
            },
            &mut t,
        );
        assert!(psnr_p > psnr_d - 3.0);
    }

    // ---- C2.1 IP routing ----
    {
        let mut rng = SimRng::seed_from_u64(3);
        let rules = random_rules(32, &mut rng);
        let mut tcam = TcamModel::new(rules.clone());
        let mut plpm = PhotonicLpm::ideal(rules);
        let lookups = 50;
        let mut agree = 0;
        for _ in 0..lookups {
            let a = ofpc_net::Addr(0x0A00_0000 | (rng.next_u64() as u32 & 0x00FF_FFFF));
            if plpm.lookup(a) == tcam.lookup(a) {
                agree += 1;
            }
        }
        push(
            UseCaseRow {
                use_case: "IP routing".into(),
                primitive: "P2".into(),
                photonic_metric: format!("{agree}/{lookups} agree"),
                baseline_metric: format!("TCAM {:.2e} J", tcam.energy_j()),
                verdict: if agree == lookups { "OK" } else { "MISMATCH" }.into(),
            },
            &mut t,
        );
        assert_eq!(agree, lookups);
    }

    // ---- C2.2 Intrusion detection ----
    {
        let mut rng = SimRng::seed_from_u64(4);
        let signatures = vec![b"ATTACK".to_vec(), b"EVIL".to_vec(), b"WORM!".to_vec()];
        let (payloads, _) = synthesize_traffic(15, 64, &signatures, 0.6, &mut rng);
        let ac = AhoCorasick::new(&signatures);
        let mut ids = PhotonicIds::ideal(&signatures);
        let mut agree = 0;
        for p in &payloads {
            if ids.scan(p) == ac.scan(p) {
                agree += 1;
            }
        }
        push(
            UseCaseRow {
                use_case: "Intrusion detection".into(),
                primitive: "P2".into(),
                photonic_metric: format!("{agree}/{} payloads agree", payloads.len()),
                baseline_metric: "Aho-Corasick (server)".into(),
                verdict: if agree == payloads.len() {
                    "OK"
                } else {
                    "MISMATCH"
                }
                .into(),
            },
            &mut t,
        );
        assert_eq!(agree, payloads.len());
    }

    // ---- C2.3 Data encryption ----
    {
        let mut rng = SimRng::seed_from_u64(5);
        let mut alice = PhotonicCipher::new(0xFEED, &mut rng);
        let mut bob = PhotonicCipher::new(0xFEED, &mut rng);
        let msg = bits_of(b"on-fiber confidentiality test payload");
        let phases = alice.encrypt_bits(&msg);
        let ok = bob.decrypt_phases(&phases) == msg;
        let mut cpu = DigitalCipher::new(0xFEED);
        cpu.process(&vec![0u8; msg.len() / 8]);
        push(
            UseCaseRow {
                use_case: "Data encryption".into(),
                primitive: "P1/P2 (phase)".into(),
                photonic_metric: format!("{:.2e} J", alice.energy_j()),
                baseline_metric: format!("{:.2e} J (CPU)", cpu.energy_j()),
                verdict: if ok && alice.energy_j() < cpu.energy_j() {
                    "OK"
                } else {
                    "FAIL"
                }
                .into(),
            },
            &mut t,
        );
        assert!(ok);
    }

    // ---- C2.4 Load balancing ----
    {
        let mut rng = SimRng::seed_from_u64(6);
        let mut ecmp = Balancer::EcmpHash;
        let r_ecmp = run_lb(&mut ecmp, &mut rng);
        let mut phot = Balancer::Photonic(Box::new(PhotonicComparator::ideal()));
        let r_phot = run_lb(&mut phot, &mut rng);
        push(
            UseCaseRow {
                use_case: "Load balancing".into(),
                primitive: "P2 (comparator)".into(),
                photonic_metric: format!(
                    "p99 {:.2} ms, drops {}",
                    r_phot.p99_latency_ms, r_phot.drops
                ),
                baseline_metric: format!(
                    "p99 {:.2} ms, drops {} (ECMP)",
                    r_ecmp.p99_latency_ms, r_ecmp.drops
                ),
                verdict: if r_phot.drops <= r_ecmp.drops {
                    "OK"
                } else {
                    "WORSE"
                }
                .into(),
            },
            &mut t,
        );
        assert!(r_phot.drops <= r_ecmp.drops);
    }

    // ---- C2.5 Massive MIMO ----
    {
        let mut rng_d = SimRng::seed_from_u64(7);
        let mut det_d = Detector::Digital;
        let ser_d = measure_ser(80, &mut det_d, &mut rng_d);
        let mut rng_p = SimRng::seed_from_u64(7);
        let mut engine = PhotonicMatVec::ideal();
        let mut det_p = Detector::Photonic(&mut engine);
        let ser_p = measure_ser(80, &mut det_p, &mut rng_p);
        push(
            UseCaseRow {
                use_case: "Massive MIMO".into(),
                primitive: "P1+P3".into(),
                photonic_metric: format!("SER {ser_p:.3}"),
                baseline_metric: format!("SER {ser_d:.3} (DC server)"),
                verdict: if ser_p <= ser_d + 0.05 {
                    "OK"
                } else {
                    "DEGRADED"
                }
                .into(),
            },
            &mut t,
        );
        assert!(ser_p <= ser_d + 0.05);
    }

    // ---- Latency/energy summary row (the Table-1 bottleneck story) ----
    {
        let req = RequestModel {
            macs: 100_000,
            bytes: 1_500,
        };
        let cloud = req.latency_s(&Placement::Cloud { detour_km: 400.0 }, &ComputeModel::tpu());
        let onfiber = req.latency_s(&Placement::OnFiber, &ComputeModel::photonic());
        let e_cloud = req.compute_energy_j(&ComputeModel::tpu());
        let e_fiber = req.compute_energy_j(&ComputeModel::photonic());
        push(
            UseCaseRow {
                use_case: "(common model)".into(),
                primitive: "—".into(),
                photonic_metric: format!("{:.2} ms, {:.1e} J", onfiber * 1e3, e_fiber),
                baseline_metric: format!("{:.2} ms, {:.1e} J", cloud * 1e3, e_cloud),
                verdict: "OK".into(),
            },
            &mut t,
        );
        assert!(onfiber < cloud && e_fiber < e_cloud);
    }

    t.print();
    let doc = versioned_pretty(&rows);
    println!("all {} use-case rows verified", rows.len());
    doc
}
