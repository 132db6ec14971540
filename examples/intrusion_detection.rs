//! Line-rate intrusion detection on fiber (Table 1, C2): a photonic
//! sliding correlator scans payloads for attack signatures while they
//! traverse the transponder, cross-checked against a from-scratch
//! Aho–Corasick baseline (the server-side engine it displaces).
//!
//! Run with: `cargo run --release --example intrusion_detection`

use ofpc_apps::intrusion::{synthesize_traffic, AhoCorasick, PhotonicIds};
use ofpc_photonics::SimRng;

fn main() {
    let signatures: Vec<Vec<u8>> = vec![
        b"GETSHELL".to_vec(),
        b"EVILBYTES".to_vec(),
        b"\xde\xad\xbe\xef".to_vec(),
        b"DROP TABLE".to_vec(),
    ];
    println!("signature set: {} patterns", signatures.len());

    // Synthetic traffic with planted attacks.
    let mut rng = SimRng::seed_from_u64(7);
    let (payloads, truth) = synthesize_traffic(200, 256, &signatures, 0.3, &mut rng);
    let planted: usize = truth.values().map(|v| v.len()).sum();
    println!(
        "traffic: {} payloads of 256 B, {planted} planted signatures\n",
        payloads.len()
    );

    // Digital baseline.
    let ac = AhoCorasick::new(&signatures);
    let mut ac_hits = 0usize;
    for p in &payloads {
        ac_hits += ac.scan(p).len();
    }

    // Photonic correlator at the transponder.
    let mut ids = PhotonicIds::ideal(&signatures);
    let mut ids_hits = 0usize;
    let mut disagreements = 0usize;
    let mut detected_planted = 0usize;
    for (i, p) in payloads.iter().enumerate() {
        let hits = ids.scan(p);
        ids_hits += hits.len();
        let ac2 = AhoCorasick::new(&signatures);
        if hits != ac2.scan(p) {
            disagreements += 1;
        }
        if let Some(expected) = truth.get(&i) {
            detected_planted += expected.iter().filter(|e| hits.contains(e)).count();
        }
    }

    println!("Aho–Corasick hits:      {ac_hits}");
    println!("photonic correlator:    {ids_hits}");
    println!("payload disagreements:  {disagreements}");
    println!("planted detected:       {detected_planted}/{planted}");
    println!(
        "\nline-rate scan of a 1500 B packet against the set: {:.2} µs of optical time",
        ids.scan_latency_s(1500) * 1e6
    );

    assert_eq!(disagreements, 0, "photonic and digital engines must agree");
    assert_eq!(detected_planted, planted, "every planted signature found");
    println!(
        "\nphotonic IDS matches Aho–Corasick exactly on all {} payloads.",
        payloads.len()
    );
}
