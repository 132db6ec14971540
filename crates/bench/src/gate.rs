//! Shared plumbing for the benches: the host's core count, the
//! best-of-N timer and its per-call form with a timing-line printer,
//! and the one baseline file the gates (`kernel_speedup`,
//! `par_scaling`, `resil_overhead`, `serve_scale`, `shard_scaling`,
//! `dse_sweep`) read and write.
//!
//! `BENCH_BASELINE.json` at the repo root is a flat JSON object. Each
//! gate owns a few figures plus a core stamp (`<gate>_cores`, or plain
//! `cores` for `par_scaling`) naming the machine shape the figures were
//! taken on. A gate compares against its figures only when they are all
//! present and stamped with this host's core count; otherwise — or when
//! `OFPC_BENCH_RECORD` is set — it re-records them instead of failing,
//! so no gate ever compares numbers from different hardware.
//! Re-recording rewrites only the recording gate's keys and leaves
//! every other gate's in place.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The shared baseline file at the repo root, tracked in git.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-of-`reps` wall-clock seconds for one invocation of `f`. The
/// minimum is the robust estimator for "how fast can this machine run
/// it", immune to one preempted trial.
pub fn best_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-five seconds per call of `f`, each trial a batch of calls
/// long enough (at least 20 ms) for the clock to resolve.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    while calls < 1 << 24 && best_time(1, || (0..calls).for_each(|_| f())) < 0.02 {
        calls *= 4;
    }
    best_time(5, || (0..calls).for_each(|_| f())) / f64::from(calls)
}

/// Print one timing line: `name`, the seconds one call takes, and the
/// throughput when a call processes `elements` items.
pub fn report(name: &str, seconds: f64, elements: Option<u64>) {
    let time = if seconds < 1e-6 {
        format!("{:.2} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    };
    let mut line = format!("{name:<48} time: {time}");
    if let Some(n) = elements {
        line.push_str(&format!(
            "  thrpt: {:.3e} elem/s",
            n as f64 / seconds.max(1e-12)
        ));
    }
    println!("{line}");
}

/// A baseline file held as an ordered key/value map, so rewriting it
/// keeps every key and its position.
#[derive(Debug)]
pub struct Baseline {
    path: PathBuf,
    map: Vec<(String, Value)>,
}

impl Baseline {
    /// Load the shared `BENCH_BASELINE.json` at the repo root.
    pub fn load() -> Self {
        Baseline::load_from(BASELINE_PATH)
    }

    /// Load a baseline file. A missing or unreadable file loads empty,
    /// which makes every gate re-record.
    pub fn load_from(path: impl AsRef<Path>) -> Self {
        let map = match std::fs::read_to_string(path.as_ref()) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(Value::Map(m)) => m,
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        };
        Baseline {
            path: path.as_ref().to_path_buf(),
            map,
        }
    }

    /// A numeric key, if present.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    /// Insert or replace one key in place.
    fn set_key(&mut self, key: &str, value: Value) {
        match self.map.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.map.push((key.to_string(), value)),
        }
    }

    /// `gate`'s pinned figures for `keys`, in order, when `cores_key`
    /// stamps them as taken on a host with this many cores. Otherwise
    /// the reason to re-record: `OFPC_BENCH_RECORD` is set, a key is
    /// missing, or the core counts differ.
    pub fn pinned(&self, gate: &str, cores_key: &str, keys: &[&str]) -> Result<Vec<f64>, String> {
        if std::env::var_os("OFPC_BENCH_RECORD").is_some() {
            return Err("OFPC_BENCH_RECORD set".to_string());
        }
        let figures: Option<Vec<f64>> = keys.iter().map(|k| self.get_num(k)).collect();
        match (self.get_num(cores_key), figures) {
            (Some(c), Some(figures)) if c as usize == cores() => Ok(figures),
            (Some(c), Some(_)) => Err(format!(
                "baseline is from a {}-core machine, this one has {}",
                c as usize,
                cores()
            )),
            _ => Err(format!("no {gate} baseline keys")),
        }
    }

    /// Stamp `cores_key` with this host's core count, set each figure,
    /// and write the file. Keys of other gates are left untouched.
    pub fn record(&mut self, cores_key: &str, figures: &[(&str, f64)]) {
        self.set_key(cores_key, Value::UInt(cores() as u64));
        for &(key, value) in figures {
            self.set_key(key, Value::Float(value));
        }
        let json = serde_json::to_string_pretty(&Value::Map(self.map.clone()))
            .expect("serialize baseline");
        std::fs::write(&self.path, json + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", self.path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_one_gate_keeps_every_other_key() {
        let path = std::env::temp_dir().join(format!(
            "ofpc-bench-gate-{}-baseline.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            r#"{"cores": 1, "dot_product_ms": 12.5, "network_sim_ms": 0.25,
                "dse_sweep_cores": 1, "dse_sweep_ms": 9.0,
                "shard_cores": 1, "shard_decision_us": 23.0}"#,
        )
        .unwrap();

        let mut base = Baseline::load_from(&path);
        base.record(
            "cores",
            &[("dot_product_ms", 10.0), ("network_sim_ms", 0.5)],
        );

        let back = Baseline::load_from(&path);
        std::fs::remove_file(&path).unwrap();
        let keys: Vec<&str> = back.map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "cores",
                "dot_product_ms",
                "network_sim_ms",
                "dse_sweep_cores",
                "dse_sweep_ms",
                "shard_cores",
                "shard_decision_us"
            ]
        );
        assert_eq!(back.get_num("cores"), Some(cores() as f64));
        assert_eq!(back.get_num("dot_product_ms"), Some(10.0));
        assert_eq!(back.get_num("network_sim_ms"), Some(0.5));
        assert_eq!(back.get_num("dse_sweep_cores"), Some(1.0));
        assert_eq!(back.get_num("dse_sweep_ms"), Some(9.0));
        assert_eq!(back.get_num("shard_decision_us"), Some(23.0));
    }

    #[test]
    fn missing_or_foreign_figures_ask_to_re_record() {
        let base = Baseline {
            path: PathBuf::new(),
            map: vec![
                ("shard_cores".to_string(), Value::UInt(cores() as u64 + 1)),
                ("shard_decision_us".to_string(), Value::Float(23.0)),
            ],
        };
        assert!(base
            .pinned("dse_sweep", "dse_sweep_cores", &["dse_sweep_ms"])
            .is_err());
        assert!(base
            .pinned("shard_scaling", "shard_cores", &["shard_decision_us"])
            .is_err());
    }
}
