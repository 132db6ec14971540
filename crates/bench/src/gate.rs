//! Shared plumbing for the `gates` bench: the host's core count, the
//! best-of-N timer and its per-call form with a timing-line printer,
//! and the baseline file its pinned figures are compared with.
//!
//! `BENCH_BASELINE.json` at the repo root is a flat JSON object: the
//! figures, plus one core stamp (`cores`) naming the machine shape they
//! were taken on. The gate compares against them only when they are all
//! present and stamped with this host's core count, so no gate ever
//! compares numbers from different hardware. It records this run's
//! figures when the file or a key is missing, or when
//! `OFPC_BENCH_RECORD` is set. A stamp for another core count is never
//! overwritten: the gate prints the figures and the reason, compares
//! nothing, and writes nothing. A file that exists but cannot be read or
//! parsed fails the gate and is left as it is.

use serde_json::Value;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The shared baseline file at the repo root, tracked in git.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");

/// The key of the core stamp.
const STAMP: &str = "cores";

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

/// What the baseline holds for one run's figures.
#[derive(Debug, PartialEq)]
pub enum Pinned {
    /// The pinned values, in the order the figures were offered.
    Figures(Vec<f64>),
    /// Nothing to compare with, for `reason`; `recorded` says whether
    /// this run's figures were written.
    Nothing { reason: String, recorded: bool },
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
    pub fn load() -> Result<Self, String> {
        Baseline::load_from(BASELINE_PATH)
    }

    /// Load a baseline file. A missing file loads empty, which makes the
    /// gate record its figures. A file that cannot be read, or that is
    /// not a JSON object, is an error naming the path and the reason.
    fn load_from(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let map = match std::fs::read_to_string(path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(Value::Map(m)) => m,
                Ok(_) => return Err(format!("{}: not a JSON object", path.display())),
                Err(e) => return Err(format!("{}: {e}", path.display())),
            },
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Ok(Baseline {
            path: path.to_path_buf(),
            map,
        })
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

    /// The pinned values of `figures`' keys, in order, when the core
    /// stamp says they were taken on a host with this many cores.
    /// Otherwise nothing to compare with: `figures` are recorded when
    /// `OFPC_BENCH_RECORD` is set or the stamp or a key is missing, and
    /// left unwritten when the stamp names another core count.
    pub fn pinned_or_record(&mut self, figures: &[(&str, f64)]) -> Pinned {
        let forced = std::env::var_os("OFPC_BENCH_RECORD").is_some();
        let pinned: Option<Vec<f64>> = figures.iter().map(|f| self.get_num(f.0)).collect();
        let reason = match (self.get_num(STAMP), pinned) {
            _ if forced => "OFPC_BENCH_RECORD set".to_string(),
            (Some(c), Some(pinned)) if c as usize == cores() => return Pinned::Figures(pinned),
            (Some(c), Some(_)) => {
                let reason = format!(
                    "baseline is from a {}-core machine, this one has {}",
                    c as usize,
                    cores()
                );
                return Pinned::Nothing {
                    reason,
                    recorded: false,
                };
            }
            _ => "baseline keys missing".to_string(),
        };
        self.record(figures);
        Pinned::Nothing {
            reason,
            recorded: true,
        }
    }

    /// Stamp the file with this host's core count, set each figure, and
    /// write it. Keys not named are left in place.
    fn record(&mut self, figures: &[(&str, f64)]) {
        self.set_key(STAMP, Value::UInt(cores() as u64));
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

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ofpc-bench-gate-{}-{name}.json",
            std::process::id()
        ))
    }

    #[test]
    fn recording_one_gate_keeps_every_other_key() {
        let path = temp_path("baseline");
        std::fs::write(
            &path,
            r#"{"cores": 1, "dot_product_ms": 12.5, "network_sim_ms": 0.25,
                "dse_sweep_ms": 9.0, "shard_decision_us": 23.0}"#,
        )
        .unwrap();

        let mut base = Baseline::load_from(&path).unwrap();
        base.record(&[("dot_product_ms", 10.0), ("network_sim_ms", 0.5)]);

        let back = Baseline::load_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let keys: Vec<&str> = back.map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "cores",
                "dot_product_ms",
                "network_sim_ms",
                "dse_sweep_ms",
                "shard_decision_us"
            ]
        );
        assert_eq!(back.get_num("cores"), Some(cores() as f64));
        assert_eq!(back.get_num("dot_product_ms"), Some(10.0));
        assert_eq!(back.get_num("network_sim_ms"), Some(0.5));
        assert_eq!(back.get_num("dse_sweep_ms"), Some(9.0));
        assert_eq!(back.get_num("shard_decision_us"), Some(23.0));
    }

    #[test]
    fn missing_figures_are_recorded() {
        let path = temp_path("missing");
        std::fs::write(&path, r#"{"cores": 1, "shard_decision_us": 23.0}"#).unwrap();

        let mut base = Baseline::load_from(&path).unwrap();
        let verdict = base.pinned_or_record(&[("dse_sweep_ms", 9.0)]);
        let back = Baseline::load_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            verdict,
            Pinned::Nothing {
                reason: "baseline keys missing".to_string(),
                recorded: true
            }
        );
        assert_eq!(back.get_num("dse_sweep_ms"), Some(9.0));
        assert_eq!(back.get_num("shard_decision_us"), Some(23.0));
    }

    #[test]
    fn a_foreign_core_stamp_compares_nothing_and_leaves_the_file_unchanged() {
        let path = temp_path("foreign");
        let text = format!(r#"{{"cores": {}, "shard_decision_us": 23.0}}"#, cores() + 1);
        std::fs::write(&path, &text).unwrap();

        let mut base = Baseline::load_from(&path).unwrap();
        let verdict = base.pinned_or_record(&[("shard_decision_us", 40.0)]);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(
                verdict,
                Pinned::Nothing {
                    recorded: false,
                    ..
                }
            ),
            "{verdict:?}"
        );
        assert_eq!(bytes, text.as_bytes());
    }

    #[test]
    fn a_truncated_file_fails_to_load_and_is_left_unchanged() {
        let path = temp_path("truncated");
        let truncated = r#"{"cores": 1, "dot_product_ms": 12.5, "network_sim"#;
        std::fs::write(&path, truncated).unwrap();

        let err = Baseline::load_from(&path).unwrap_err();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let reason = serde_json::from_str(truncated).unwrap_err();
        assert_eq!(err, format!("{}: {reason}", path.display()));
        assert_eq!(bytes, truncated.as_bytes());
    }
}
