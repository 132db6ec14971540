//! Property-style tests over the core invariants: serialization
//! round-trips, physical conservation laws, analog-compute accuracy
//! envelopes, and solver feasibility — each over randomized inputs
//! rather than hand-picked cases, driven by the workspace's own
//! deterministic [`SimRng`] so failures replay exactly.

use bytes::Bytes;
use ofpc_controller::greedy::solve_greedy;
use ofpc_controller::ilp::solve_exact;
use ofpc_controller::is_feasible;
use ofpc_controller::options::{AllocOption, ProblemInstance};
use ofpc_engine::dot::DotProductUnit;
use ofpc_engine::matcher::PatternMatcher;
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::{Addr, NodeId, Prefix};
use ofpc_photonics::coupler::Coupler;
use ofpc_photonics::signal::OpticalField;
use ofpc_photonics::units;
use ofpc_photonics::SimRng;
use ofpc_transponder::frame::Frame;

const CASES: usize = 64;

const fn seed() -> u64 {
    0x0f9c_5eed_2026_0806
}

fn random_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
}

fn random_bools(rng: &mut SimRng, min_len: usize, max_len: usize) -> Vec<bool> {
    let len = min_len + rng.below(max_len - min_len + 1);
    (0..len).map(|_| rng.next_u64() & 1 == 1).collect()
}

// ---------- Wire-format round trips ----------

#[test]
fn packet_wire_round_trip() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("packet-wire");
    for case in 0..CASES {
        let payload = random_bytes(&mut rng, 512);
        let src = Addr(rng.next_u64() as u32);
        let dst = Addr(rng.next_u64() as u32);
        let id = rng.next_u64() as u32;
        let p = if case % 2 == 0 {
            let pch = PchHeader::request(
                ofpc_engine::Primitive::PatternMatching,
                rng.next_u64() as u16,
                payload.len().min(u16::MAX as usize) as u16,
            );
            Packet::compute(src, dst, id, pch, payload)
        } else {
            Packet::data(src, dst, id, payload)
        };
        let parsed = Packet::from_wire(p.to_wire()).expect("round trip");
        assert_eq!(parsed, p);
    }
}

#[test]
fn frame_bits_round_trip() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("frame-bits");
    for _ in 0..CASES {
        let frame = Frame {
            op: (rng.next_u64() & 0xff) as u8,
            result: [
                (rng.next_u64() & 0xff) as u8,
                (rng.next_u64() & 0xff) as u8,
                (rng.next_u64() & 0xff) as u8,
                (rng.next_u64() & 0xff) as u8,
            ],
            payload: Bytes::from(random_bytes(&mut rng, 256)),
        };
        let (parsed, consumed) = Frame::from_bits(&frame.to_bits()).expect("round trip");
        assert_eq!(parsed, frame);
        assert_eq!(consumed, frame.line_bits());
    }
}

#[test]
fn frame_single_bit_flip_never_parses_silently() {
    // Flipping any bit after the preamble must be caught by the CRC
    // (or produce a parse error) — never a silently different frame.
    let mut rng = SimRng::seed_from_u64(seed()).derive("frame-flip");
    for _ in 0..CASES {
        let mut payload = random_bytes(&mut rng, 63);
        payload.push((rng.next_u64() & 0xff) as u8); // non-empty
        let frame = Frame::data(payload);
        let mut bits = frame.to_bits();
        let flip = 16 + rng.below(bits.len() - 16);
        bits[flip] = !bits[flip];
        if let Ok((parsed, _)) = Frame::from_bits(&bits) {
            assert_eq!(parsed, frame, "silent corruption at bit {flip}");
        } // Err = detected — good
    }
}

// ---------- Physical conservation ----------

#[test]
fn coupler_conserves_power() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("coupler");
    for _ in 0..CASES {
        let kappa = rng.uniform();
        let p_a = 1e-6 + rng.uniform() * (1e-2 - 1e-6);
        let p_b = 1e-6 + rng.uniform() * (1e-2 - 1e-6);
        let phase = rng.uniform() * std::f64::consts::TAU;
        let c = Coupler::new(kappa, 0.0);
        let a = OpticalField::cw(4, p_a, 10e9);
        let mut b = OpticalField::cw(4, p_b, 10e9);
        b.rotate_phase(phase);
        let (o1, o2) = c.combine(&a, &b);
        let p_in = a.mean_power_w() + b.mean_power_w();
        let p_out = o1.mean_power_w() + o2.mean_power_w();
        assert!(
            (p_in - p_out).abs() / p_in < 1e-9,
            "in {p_in} out {p_out} (kappa {kappa}, phase {phase})"
        );
    }
}

#[test]
fn attenuation_never_amplifies() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("atten");
    for _ in 0..CASES {
        let db = rng.uniform() * 60.0;
        let p = 1e-9 + rng.uniform() * (1e-1 - 1e-9);
        let mut f = OpticalField::cw(8, p, 10e9);
        f.attenuate_db(db);
        assert!(f.mean_power_w() <= p * (1.0 + 1e-12), "db {db} p {p}");
    }
}

#[test]
fn dbm_watt_round_trip() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("dbm");
    for _ in 0..CASES {
        let dbm = -60.0 + rng.uniform() * 80.0;
        let back = units::watts_to_dbm(units::dbm_to_watts(dbm));
        assert!((back - dbm).abs() < 1e-9, "dbm {dbm} back {back}");
    }
}

// ---------- Analog compute envelopes ----------

#[test]
fn ideal_dot_product_tracks_exact() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("dot-exact");
    for _ in 0..CASES {
        let n = 1 + rng.below(47);
        let a: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let mut unit = DotProductUnit::ideal();
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = unit.dot_nonneg(&a, &b);
        // 12-bit converters: error bounded well under 0.5% of n.
        assert!(
            (got - exact).abs() <= 0.005 * n as f64 + 0.01,
            "got {got} exact {exact} (n {n})"
        );
    }
}

#[test]
fn matcher_recovers_exact_hamming() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("matcher");
    for _ in 0..CASES {
        let data = random_bools(&mut rng, 1, 63);
        let mut pattern = data.clone();
        for _ in 0..rng.below(8) {
            let i = rng.below(pattern.len());
            pattern[i] = !pattern[i];
        }
        let true_distance = data.iter().zip(&pattern).filter(|(a, b)| a != b).count() as u64;
        let mut m = PatternMatcher::ideal();
        let r = m.match_block(&data, &pattern);
        assert_eq!(r.hamming, true_distance);
    }
}

// ---------- Addressing ----------

#[test]
fn prefix_contains_its_network() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("prefix");
    for _ in 0..CASES {
        let p = Prefix::new(Addr(rng.next_u64() as u32), rng.below(33) as u8);
        assert!(p.contains(p.network()));
        // Display/parse round trip.
        let parsed: Prefix = p.to_string().parse().expect("parse");
        assert_eq!(parsed, p);
    }
}

#[test]
fn longer_prefixes_are_subsets() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("prefix-subset");
    for _ in 0..CASES {
        let addr = Addr(rng.next_u64() as u32);
        let len = 1 + rng.below(32) as u8;
        let longer = Prefix::new(addr, len);
        let shorter = Prefix::new(addr, len - 1);
        // Any address in the longer prefix is in the shorter one.
        assert!(shorter.contains(longer.network()));
    }
}

// ---------- Solver feasibility ----------

#[test]
fn solvers_always_return_feasible_allocations() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("solvers");
    for _ in 0..CASES {
        let demands = 1 + rng.below(9);
        let options: Vec<Vec<AllocOption>> = (0..demands)
            .map(|_| {
                vec![AllocOption {
                    placement: vec![NodeId(rng.below(4) as u32)],
                    cost: 0.1 + rng.uniform() * 4.9,
                    added_latency_ps: 0,
                }]
            })
            .collect();
        let slots: Vec<usize> = (0..4).map(|_| rng.below(3)).collect();
        let inst = ProblemInstance {
            node_slots: slots,
            options,
        };
        let exact = solve_exact(&inst, 100_000);
        assert!(is_feasible(&inst, &exact.allocation));
        let greedy = solve_greedy(&inst);
        assert!(is_feasible(&inst, &greedy.allocation));
        // Exact dominates greedy.
        assert!(exact.score >= greedy.score - 1e-9);
    }
}

// ---------- Apps + extensions ----------

use ofpc_apps::iprouting::{PhotonicLpm, TcamModel};
use ofpc_apps::secure_match::encrypt_bits;
use ofpc_apps::video::{rle_decode, rle_encode};
use ofpc_core::distributed::split_weights;
use ofpc_transponder::coherent::{qpsk_map, qpsk_slice, CoherentRx, CoherentTx};

#[test]
fn rle_round_trips_any_sequence() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("rle-rt");
    for _ in 0..32 {
        let n = rng.below(128);
        let coeffs: Vec<i32> = (0..n).map(|_| rng.below(600) as i32 - 300).collect();
        let enc = rle_encode(&coeffs);
        assert_eq!(rle_decode(&enc, coeffs.len()), coeffs);
    }
}

#[test]
fn rle_never_expands() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("rle-size");
    for _ in 0..32 {
        let n = 1 + rng.below(63);
        let coeffs: Vec<i32> = (0..n).map(|_| rng.below(20) as i32 - 10).collect();
        // Each symbol covers ≥1 coefficient, so symbol count ≤ input len.
        let enc = rle_encode(&coeffs);
        assert!(enc.len() <= coeffs.len());
    }
}

#[test]
fn photonic_lpm_always_agrees_with_tcam() {
    let mut outer = SimRng::seed_from_u64(seed()).derive("lpm");
    for case in 0..32u64 {
        let mut rng = outer.derive(&format!("case-{case}"));
        let rules = ofpc_apps::iprouting::random_rules(12, &mut rng);
        let mut tcam = TcamModel::new(rules.clone());
        let mut plpm = PhotonicLpm::ideal(rules);
        let lookups = 1 + rng.below(11);
        for _ in 0..lookups {
            let a = Addr(0x0A00_0000 | (rng.next_u64() as u32 & 0x00FF_FFFF));
            assert_eq!(plpm.lookup(a), tcam.lookup(a));
        }
        let _ = outer.next_u64();
    }
}

#[test]
fn tcam_priority_is_rule_order_independent() {
    // Shuffling the rule insertion order never changes LPM results.
    let mut outer = SimRng::seed_from_u64(seed()).derive("tcam-order");
    for case in 0..32u64 {
        let mut rng = outer.derive(&format!("case-{case}"));
        let rules = ofpc_apps::iprouting::random_rules(10, &mut rng);
        let mut shuffled = rules.clone();
        rng.shuffle(&mut shuffled);
        let mut a_tbl = TcamModel::new(rules);
        let mut b_tbl = TcamModel::new(shuffled);
        for _ in 0..8 {
            let addr = Addr(0x0A00_0000 | (rng.next_u64() as u32 & 0x00FF_FFFF));
            let (a, b) = (a_tbl.lookup(addr), b_tbl.lookup(addr));
            // Ports may differ only when two same-length prefixes both
            // match (ambiguous tables); with random_rules collisions are
            // rare, but both must at least be Some/None-consistent.
            if a != b {
                assert_eq!(a.is_some(), b.is_some());
            }
        }
    }
}

#[test]
fn phase_xor_encryption_preserves_hamming_distance() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("phase-xor");
    for _ in 0..32 {
        let data = random_bools(&mut rng, 1, 63);
        let mut other = data.clone();
        for _ in 0..rng.below(6) {
            let i = rng.below(other.len());
            other[i] = !other[i];
        }
        let key = rng.next_u64();
        let plain_dist = data.iter().zip(&other).filter(|(a, b)| a != b).count();
        let enc_a = encrypt_bits(&data, key);
        let enc_b = encrypt_bits(&other, key);
        let cipher_dist = enc_a.iter().zip(&enc_b).filter(|(a, b)| a != b).count();
        assert_eq!(plain_dist, cipher_dist);
    }
}

#[test]
fn split_weights_partitions_exactly() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("split-weights");
    for _ in 0..32 {
        let n = 1 + rng.below(63);
        let weights: Vec<f64> = (0..n).map(|_| rng.uniform() * 2.0 - 1.0).collect();
        let sites = 1 + rng.below(7.min(n));
        let site_ids: Vec<NodeId> = (0..sites).map(|i| NodeId(i as u32)).collect();
        let chunks = split_weights(&weights, &site_ids);
        let mut rebuilt = Vec::new();
        for (offset, chunk) in &chunks {
            assert_eq!(*offset, rebuilt.len());
            assert!(!chunk.is_empty());
            rebuilt.extend(chunk.iter().copied());
        }
        assert_eq!(rebuilt, weights);
        // Balanced: sizes differ by at most 1.
        let sizes: Vec<usize> = chunks.iter().map(|(_, c)| c.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
    }
}

#[test]
fn qpsk_map_slice_round_trip() {
    for b0 in [false, true] {
        for b1 in [false, true] {
            let (i, q) = qpsk_map(b0, b1);
            assert_eq!(qpsk_slice(i, q), (b0, b1));
        }
    }
}

#[test]
fn coherent_loopback_any_bits() {
    let mut rng = SimRng::seed_from_u64(seed()).derive("coherent");
    for _ in 0..32 {
        let bits = random_bools(&mut rng, 2, 127);
        let mut dev_rng = SimRng::seed_from_u64(0);
        let mut tx = CoherentTx::ideal(&mut dev_rng);
        let mut rx = CoherentRx::ideal();
        let field = tx.transmit(&bits);
        let got = rx.receive(&field, 0.0);
        assert_eq!(&got[..bits.len()], &bits[..]);
    }
}

// ---------- Graph-compiler precision contract ----------

/// The lowering pass admits a DNN stage photonically because
/// [`ofpc_graph::lower::ErrorBudget`] predicts enough effective bits at
/// the stage's operand length. This property closes the loop on real
/// (simulated-physics) hardware:
///
/// 1. a realistic P1 unit, measured empirically, must deliver at least
///    the bits the budget promised (the margin is the headroom);
/// 2. a full photonic DNN chain vs its exact f64 digital replica must
///    keep its end-to-end error within that same bit budget, referenced
///    to the stage's physical full scale like the prediction is;
/// 3. whenever the f64 baseline's decision margin exceeds the budget's
///    error allowance, photonic classification must agree — the budget
///    is exactly the contract that makes photonic lowering safe.
#[test]
fn photonic_dnn_chain_stays_within_the_lowering_budget() {
    use ofpc_engine::dnn::{argmax, Mlp, PhotonicDnn};
    use ofpc_engine::dot::{DotProductUnit, DotUnitConfig};
    use ofpc_engine::mvm::PhotonicMatVec;
    use ofpc_engine::nonlinear::NonlinearUnit;
    use ofpc_engine::precision::measure_precision;
    use ofpc_graph::lower::ErrorBudget;

    const DIM: usize = 16;
    let mut rng = SimRng::seed_from_u64(seed()).derive("dnn-budget");
    let budget = ErrorBudget::realistic();
    let promised_bits = budget.effective_bits(DIM);

    // (1) The budget's own model, measured: realistic P1 at n = DIM.
    let mut unit = DotProductUnit::new(DotUnitConfig::realistic(), &mut rng.derive("p1"));
    unit.calibrate(DIM);
    let report = measure_precision(&mut unit, DIM, CASES, &mut rng.derive("trials"));
    assert!(
        report.effective_bits >= promised_bits,
        "P1 measured {:.2} bits, budget promised {promised_bits:.2}",
        report.effective_bits
    );

    // (2) + (3): the end-to-end chain against its f64 replica.
    let mlp = Mlp::new_random(&[DIM, DIM, 8], &mut rng);
    let engine = {
        let mut erng = rng.derive("engine");
        let mut e = PhotonicMatVec::new(DotUnitConfig::realistic(), 4, &mut erng);
        e.calibrate(DIM);
        e
    };
    let calib: Vec<Vec<f64>> = (0..8)
        .map(|_| (0..DIM).map(|_| rng.uniform()).collect())
        .collect();
    let mut pdnn = PhotonicDnn::new(&mlp, engine, NonlinearUnit::ideal(), &calib);
    // The ideal unit draws nothing; this draw holds later streams in place.
    rng.derive("curve");
    let curve = NonlinearUnit::ideal().transfer_curve(64);

    // Output-stage physical full scale: DIM unit-range operands times
    // the layer weight scale — the reference predicted_effective_bits
    // uses, so the comparison is apples to apples.
    let full_scale = DIM as f64 * mlp.layers.last().expect("has layers").max_abs_weight();
    let allowance = full_scale * (-promised_bits).exp2();
    let mut sq_sum = 0.0;
    let mut samples = 0usize;
    let mut confident = 0usize;
    let mut confident_agree = 0usize;
    for _ in 0..CASES {
        let x: Vec<f64> = (0..DIM).map(|_| rng.uniform()).collect();
        let photonic = pdnn.forward(&x);
        let twin = pdnn.digital_twin_forward(&x, &curve);
        for (p, t) in photonic.iter().zip(&twin) {
            let e = (p - t) / full_scale;
            sq_sum += e * e;
            samples += 1;
        }
        // Decision margin of the baseline: top logit minus runner-up.
        let top = argmax(&twin);
        let margin = twin[top]
            - twin
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != top)
                .map(|(_, &v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
        if margin > 4.0 * allowance {
            confident += 1;
            if argmax(&photonic) == top {
                confident_agree += 1;
            }
        }
    }
    let rms = (sq_sum / samples as f64).sqrt();
    let observed_bits = (1.0 / rms).log2();
    assert!(
        observed_bits >= promised_bits,
        "photonic chain delivered {observed_bits:.2} effective bits, \
         budget promised {promised_bits:.2}"
    );
    assert!(confident * 4 >= CASES, "margin threshold starves the test");
    assert_eq!(
        confident_agree, confident,
        "photonic argmax flipped a decision whose margin beat the budget"
    );
}
