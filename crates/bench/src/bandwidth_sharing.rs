//! E8 — §5 scalability: "photonic compute transponders can support up to
//! 800 Gbps network bandwidth on one wavelength. This bandwidth can be
//! shared among many users."
//!
//! N users share one compute transponder's 800 Gbps wavelength with
//! identical CBR compute flows. We sweep N at a fixed aggregate offered
//! load below, at, and above capacity, and report per-user goodput,
//! Jain's fairness index, and the compute coverage — the shape to see:
//! full fairness and full coverage until the wavelength saturates, then
//! graceful queue-drop degradation.

use crate::table::{versioned_pretty, Table};
use ofpc_engine::Primitive;
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::stats::jain_fairness;
use ofpc_net::Topology;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct E8Row {
    users: usize,
    offered_load_frac: f64,
    delivered: usize,
    injected: usize,
    goodput_gbps: f64,
    fairness: f64,
    coverage: f64,
    drops: u64,
}

fn run_sharing(users: usize, load_frac: f64) -> E8Row {
    // Two-node WAN: all users at A, compute engine at B (also the sink).
    let mut topo = Topology::new();
    let a = topo.add_node("A");
    let b = topo.add_node("B");
    topo.add_link(a, b, 100.0); // one 800 Gbps wavelength
    let mut net = Network::with_queue_capacity(topo, SimRng::seed_from_u64(8), 64 * 1024);
    net.install_shortest_path_routes();
    let weights = vec![0.5; 64];
    net.add_engine(b, 1, OpSpec::Dot { weights }, 0.0);

    let payload = 1_024usize;
    let wire_bits = ((payload + 16 + 8) * 8) as f64;
    let capacity = 800e9;
    let per_user_rate = load_frac * capacity / users as f64; // bits/s
    let gap_ps = (wire_bits / per_user_rate * 1e12).round() as u64;
    let duration_ps = 10_000_000u64; // 10 µs of traffic
    let mut injected = 0usize;
    for u in 0..users {
        let src = Network::node_addr(a, (u + 1) as u8);
        let dst = Network::node_addr(b, (u + 1) as u8);
        // Stagger users so they don't all burst at t=0.
        let mut t = (u as u64 * gap_ps) / users as u64;
        let mut id = (u as u32) << 20;
        while t < duration_ps {
            let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 64);
            let ops = vec![0.5; 64];
            // Operand segment up front, app payload padding behind it,
            // so the packet really occupies `payload` bytes of the
            // wavelength.
            let mut body = Packet::encode_operands(&ops).to_vec();
            body.resize(payload, 0);
            net.inject(t, a, Packet::compute(src, dst, id, pch, body));
            id += 1;
            injected += 1;
            t += gap_ps;
        }
    }
    net.run_to_idle();
    // Per-user delivered counts → fairness.
    let mut per_user = vec![0f64; users];
    for r in &net.stats.delivered {
        per_user[(r.packet_id >> 20) as usize] += 1.0;
    }
    E8Row {
        users,
        offered_load_frac: load_frac,
        delivered: net.stats.delivered_count(),
        injected,
        goodput_gbps: net.stats.goodput_bps() / 1e9,
        fairness: jain_fairness(&per_user),
        coverage: if net.stats.delivered_count() == 0 {
            0.0
        } else {
            net.stats.computed_count() as f64 / net.stats.delivered_count() as f64
        },
        drops: net.stats.total_drops(),
    }
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E8: sharing one 800 Gbps compute wavelength among N users\n");
    let mut t = Table::new(
        "per-load sweep",
        &[
            "users",
            "load",
            "delivered/injected",
            "goodput Gbps",
            "Jain",
            "coverage",
            "drops",
        ],
    );
    let mut rows = Vec::new();
    for &users in &[2usize, 8, 32] {
        for &load in &[0.5, 0.9, 1.5] {
            let row = run_sharing(users, load);
            t.row(&[
                row.users.to_string(),
                format!("{:.1}", row.offered_load_frac),
                format!("{}/{}", row.delivered, row.injected),
                format!("{:.0}", row.goodput_gbps),
                format!("{:.3}", row.fairness),
                format!("{:.2}", row.coverage),
                row.drops.to_string(),
            ]);
            rows.push(row);
        }
    }
    t.print();

    for row in &rows {
        // Every delivered compute packet was computed, at any load.
        assert!(
            (row.coverage - 1.0).abs() < 1e-9,
            "coverage must stay 1.0: {row:?}"
        );
        // Below capacity: no drops, everything delivered.
        if row.offered_load_frac <= 0.9 {
            assert_eq!(row.delivered, row.injected, "{row:?}");
        }
        // Fairness stays high (identical CBR flows through one FIFO);
        // drop-tail under overload can skew it slightly.
        assert!(row.fairness > 0.8, "{row:?}");
    }
    // Overload sheds load via queue drops.
    assert!(
        rows.iter()
            .filter(|r| r.offered_load_frac > 1.0)
            .all(|r| r.drops > 0),
        "overload must drop"
    );
    println!("\nall sharing invariants hold (full coverage, Jain > 0.9, overload drops)");
    versioned_pretty(&rows)
}
