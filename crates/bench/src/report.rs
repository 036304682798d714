//! Report helpers: aligned tables on stdout plus JSON series under
//! `target/paper-results/` for EXPERIMENTS.md.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Where result JSON files land.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// A named data series (one legend entry of a figure).
#[derive(Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// X values (e.g. processor counts).
    pub x: Vec<f64>,
    /// Y values (e.g. GB/s).
    pub y: Vec<f64>,
}

/// A figure's regenerated data plus the paper's reference shape notes.
#[derive(Debug)]
pub struct FigureData {
    /// Identifier, e.g. `"fig05"`.
    pub id: String,
    /// Axis/semantics description.
    pub title: String,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form notes (paper expectations, pass/fail of shape checks).
    pub notes: Vec<String>,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Infinity; map them to null like serde_json does for
    // Option<f64>.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(", "))
}

impl Series {
    fn to_json(&self, indent: &str) -> String {
        format!(
            "{indent}{{\n{indent}  \"label\": {},\n{indent}  \"x\": {},\n{indent}  \"y\": {}\n{indent}}}",
            json_string(&self.label),
            json_f64_array(&self.x),
            json_f64_array(&self.y),
        )
    }
}

impl FigureData {
    /// Render as pretty-printed JSON (hand-rolled: the build environment
    /// has no serde).
    pub(crate) fn to_json(&self) -> String {
        let series: Vec<String> = self.series.iter().map(|s| s.to_json("    ")).collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"series\": [\n{}\n  ],\n  \"notes\": [{}]\n}}\n",
            json_string(&self.id),
            json_string(&self.title),
            series.join(",\n"),
            notes.join(", "),
        )
    }

    /// Write `<id>.json` into [`results_dir`].
    pub fn save(&self) {
        let path = results_dir().join(format!("{}.json", self.id));
        fs::write(&path, self.to_json()).expect("write results json");
        println!("[saved {}]", path.display());
    }
}

/// Print a table: header plus rows of (label, values-per-column).
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)], unit: &str) {
    println!("\n=== {title} ===");
    print!("{:<28}", "");
    for c in columns {
        print!("{c:>16}");
    }
    println!("  [{unit}]");
    for (label, vals) in rows {
        print!("{label:<28}");
        for v in vals {
            if *v >= 100.0 {
                print!("{v:>16.1}");
            } else {
                print!("{v:>16.3}");
            }
        }
        println!();
    }
}

/// Check and report a shape expectation; returns the note line.
pub fn check(name: &str, ok: bool) -> String {
    let line = format!("[{}] {}", if ok { "OK" } else { "MISS" }, name);
    println!("{line}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_data_round_trips_to_disk() {
        let f = FigureData {
            id: "test_fig".into(),
            title: "t".into(),
            series: vec![Series {
                label: "a".into(),
                x: vec![1.0],
                y: vec![2.0],
            }],
            notes: vec![check("demo", true)],
        };
        f.save();
        let path = results_dir().join("test_fig.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"test_fig\""));
        std::fs::remove_file(path).ok();
    }
}
