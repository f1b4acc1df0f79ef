//! Schema checker for exported metric documents — the CI metrics-smoke
//! gate.
//!
//! Usage: `metrics_check <file.json>...`. Each file must parse as JSON
//! and validate as `compresso.metrics.v1`. Exits non-zero listing every
//! problem found, so a binary that silently emits a malformed document
//! fails CI rather than producing an unreadable artifact.

use compresso_telemetry::{json, validate_metrics_doc, METRICS_SCHEMA};

fn check_file(path: &str) -> Result<String, Vec<String>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read {path}: {e}")])?;
    let doc = json::parse(&text).map_err(|e| vec![format!("{path}: invalid JSON: {e}")])?;
    let errs = validate_metrics_doc(&doc);
    if errs.is_empty() {
        let cells = doc.get("cells").and_then(|c| c.as_arr()).unwrap_or(&[]);
        let epochs: usize = cells
            .iter()
            .filter_map(|cell| cell.get("epochs").and_then(|e| e.as_arr()))
            .map(<[_]>::len)
            .sum();
        Ok(format!(
            "{path}: OK ({METRICS_SCHEMA}, {} cells, {epochs} epoch snapshots)",
            cells.len()
        ))
    } else {
        Err(errs.into_iter().map(|e| format!("{path}: {e}")).collect())
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: metrics_check <file.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &files {
        match check_file(path) {
            Ok(line) => println!("{line}"),
            Err(errs) => {
                failed = true;
                for e in errs {
                    eprintln!("error: {e}");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
