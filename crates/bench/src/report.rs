//! Report formatting and persistence for the experiment binaries.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A plain-text table builder (fixed-width columns).
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "table arity mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let rendered: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            let _ = writeln!(out, "| {} |", rendered.join(" | "));
        };
        line(&mut out, &self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Format a float compactly.
pub fn fmt(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Where experiment reports are persisted.
fn results_dir() -> PathBuf {
    let dir = std::env::var("MB2_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Print a report and persist it under `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = results_dir().join(format!("{name}.txt"));
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("(saved to {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "12345".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.lines().count() >= 4);
        // All data lines have equal width.
        let widths: Vec<usize> = text.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{text}");
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(0.1234), "0.123");
    }
}
