//! Result tables: aligned text output for the terminal plus the
//! versioned JSON documents under `results/` that keep EXPERIMENTS.md
//! numbers regenerable.

use serde::Serialize;
use std::path::Path;

/// A simple column-aligned results table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    pub(crate) title: String,
    pub(crate) headers: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    pub(crate) fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    pub(crate) fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("## {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub(crate) fn print(&self) {
        println!("{}", self.render());
    }
}

/// Version of the `results/*.json` report envelope. Bump when the
/// envelope shape (not the payload) changes; payload drift is caught by
/// the golden fixtures instead.
pub const SCHEMA_VERSION: u32 = 1;

/// Wrap a serialized payload in the versioned report envelope:
///
/// ```json
/// {
///   "schema_version": 1,
///   "data": <payload>
/// }
/// ```
///
/// Every line of the payload after the first is indented two spaces so
/// the envelope nests like ordinary pretty-printed JSON. The output is
/// a pure function of the payload — golden fixtures stay
/// byte-deterministic.
pub(crate) fn versioned_pretty<T: Serialize>(value: &T) -> String {
    let inner = serde_json::to_string_pretty(value).expect("payload serializes");
    let mut indented = String::with_capacity(inner.len());
    for (i, line) in inner.lines().enumerate() {
        if i > 0 {
            indented.push_str("\n  ");
        }
        indented.push_str(line);
    }
    format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"data\": {indented}\n}}")
}

/// Wrap a Chrome-trace event array in the versioned object format —
/// still loadable by `chrome://tracing` / Perfetto, which accept
/// `{"traceEvents": [...]}` with extra metadata keys.
pub(crate) fn versioned_trace(trace_array_json: &str) -> String {
    format!("{{\"schema_version\":{SCHEMA_VERSION},\"traceEvents\":\n{trace_array_json}\n}}")
}

/// Write one results document (or trace dump) to `path`, creating its
/// directory first.
pub fn write_result(path: &str, contents: &str) -> std::io::Result<()> {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "12345".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        let lines: Vec<&str> = r.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // Both data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len().max(lines[2].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn versioned_envelope_is_valid_json_with_schema() {
        #[derive(Serialize)]
        struct Payload {
            x: u32,
            name: String,
        }
        let doc = versioned_pretty(&Payload {
            x: 7,
            name: "hi".into(),
        });
        assert!(doc.starts_with("{\n  \"schema_version\": 1,\n  \"data\": {"));
        let v: serde_json::Value = serde_json::from_str(&doc).expect("envelope parses");
        let map = v.as_map().expect("envelope is an object");
        assert!(map.iter().any(|(k, _)| k == "schema_version"));
        assert!(map.iter().any(|(k, _)| k == "data"));
    }

    #[test]
    fn versioned_trace_keeps_event_array() {
        let doc = versioned_trace("[\n  {\"ph\":\"B\"}\n]");
        let v: serde_json::Value = serde_json::from_str(&doc).expect("trace envelope parses");
        let map = v.as_map().expect("object format");
        assert!(map.iter().any(|(k, _)| k == "traceEvents"));
        assert!(map.iter().any(|(k, _)| k == "schema_version"));
    }
}
