//! Run experiments and regenerate golden fixtures from the registry
//! (`ofpc_bench::REGISTRY`). From the repo root:
//!
//! ```text
//! cargo run --release -p ofpc-bench --bin expt [ID...]
//! ```
//!
//! No id runs every entry in registry order. Each entry prints its
//! tables, asserts its claims, and has its document written to its
//! `results/` path; a failed assert or an unwritable document exits
//! non-zero. Each entry's wall time goes to stderr as one line,
//! `<id>: <seconds> s`, so a speedup shows in a full experiment's time
//! without touching any document.

use ofpc_bench::{Entry, REGISTRY};
use ofpc_par::WorkerPool;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let mut entries: Vec<&Entry> = Vec::new();
    for id in &ids {
        match REGISTRY.iter().find(|e| e.id == id.as_str()) {
            Some(e) => entries.push(e),
            None => {
                let known: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
                eprintln!("unknown experiment {id:?}; known: {}", known.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    if ids.is_empty() {
        entries = REGISTRY.iter().collect();
    }
    let pool = WorkerPool::from_env();
    for e in entries {
        let t0 = Instant::now();
        let doc = (e.run)(&pool);
        eprintln!("{}: {:.3} s", e.id, t0.elapsed().as_secs_f64());
        if let Err(err) = ofpc_bench::table::write_result(e.path, &doc) {
            eprintln!("cannot write {}: {err}", e.path);
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", e.path, doc.len());
    }
    ExitCode::SUCCESS
}
