//! The stable on-disk metrics document model and its schema validator.
//!
//! `compresso.metrics.v1` documents ([`MetricsDoc`]) hold per-cell
//! metric bundles with an optional epoch time-series, produced by every
//! figure binary's `--metrics-out` flag.
//!
//! The validator runs against parsed [`JsonValue`] trees so the
//! `metrics_check` binary and the round-trip tests share one source of
//! truth for what "schema-valid" means.

use crate::epoch::MetricsReport;
use crate::json::JsonValue;

/// Schema identifier for figure metric documents.
pub const METRICS_SCHEMA: &str = "compresso.metrics.v1";

/// Metrics for one sweep cell: its label, wall-clock duration and the
/// full metric bundle (final snapshot + epoch series).
#[derive(Clone, Debug, PartialEq)]
pub struct CellMetrics {
    pub label: String,
    pub wall_millis: u64,
    pub report: MetricsReport,
}

/// A complete `compresso.metrics.v1` document.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsDoc {
    /// Producing binary (`fig2`, `fig10`, ...).
    pub source: String,
    /// What an epoch tick counts: `cycles` for timing runs, `pages`
    /// for static studies.
    pub epoch_unit: String,
    /// Epoch length in ticks (0 = time-series disabled).
    pub epoch_len: u64,
    pub cells: Vec<CellMetrics>,
}

impl MetricsDoc {
    pub fn new(source: &str, epoch_unit: &str, epoch_len: u64, cells: Vec<CellMetrics>) -> Self {
        Self {
            source: source.to_string(),
            epoch_unit: epoch_unit.to_string(),
            epoch_len,
            cells,
        }
    }
}

fn expect_str<'a>(v: &'a JsonValue, key: &str, errs: &mut Vec<String>) -> Option<&'a str> {
    match v.get(key).and_then(|x| x.as_str()) {
        Some(s) => Some(s),
        None => {
            errs.push(format!("missing or non-string field `{key}`"));
            None
        }
    }
}

fn expect_u64(v: &JsonValue, key: &str, errs: &mut Vec<String>) -> Option<u64> {
    match v.get(key).and_then(|x| x.as_u64()) {
        Some(n) => Some(n),
        None => {
            errs.push(format!("missing or non-integer field `{key}`"));
            None
        }
    }
}

fn validate_metric_entry(name: &str, m: &JsonValue, where_: &str, errs: &mut Vec<String>) {
    let Some(kind) = m.get("type").and_then(|t| t.as_str()) else {
        errs.push(format!("{where_}: metric `{name}` has no `type`"));
        return;
    };
    match kind {
        "counter" => {
            if m.get("value").and_then(|v| v.as_u64()).is_none() {
                errs.push(format!("{where_}: counter `{name}` needs integer `value`"));
            }
        }
        "gauge" => {
            if m.get("value").and_then(|v| v.as_f64()).is_none() {
                errs.push(format!("{where_}: gauge `{name}` needs numeric `value`"));
            }
        }
        "histogram" => {
            let bounds = m.get("bounds").and_then(|b| b.as_arr());
            let counts = m.get("counts").and_then(|c| c.as_arr());
            match (bounds, counts) {
                (Some(b), Some(c)) => {
                    if c.len() != b.len() + 1 {
                        errs.push(format!(
                            "{where_}: histogram `{name}` needs counts.len == bounds.len + 1 \
                             (got {} vs {})",
                            c.len(),
                            b.len()
                        ));
                    }
                    // A bucket sum past `u64` matches no count.
                    let total = c
                        .iter()
                        .filter_map(|v| v.as_u64())
                        .try_fold(0u64, u64::checked_add);
                    if total.is_none() || m.get("count").and_then(|v| v.as_u64()) != total {
                        errs.push(format!(
                            "{where_}: histogram `{name}` count does not match bucket sum"
                        ));
                    }
                }
                _ => errs.push(format!(
                    "{where_}: histogram `{name}` needs `bounds` and `counts` arrays"
                )),
            }
            for field in ["count", "sum", "max", "p50", "p95", "p99"] {
                if m.get(field).and_then(|v| v.as_u64()).is_none() {
                    errs.push(format!(
                        "{where_}: histogram `{name}` missing integer `{field}`"
                    ));
                }
            }
        }
        other => errs.push(format!(
            "{where_}: metric `{name}` has unknown type `{other}`"
        )),
    }
}

fn validate_metric_map(v: &JsonValue, where_: &str, errs: &mut Vec<String>) {
    match v.as_obj() {
        Some(map) => {
            for (name, m) in map {
                validate_metric_entry(name, m, where_, errs);
            }
        }
        None => errs.push(format!("{where_}: `metrics` is not an object")),
    }
}

/// Validates a parsed `compresso.metrics.v1` document. Returns every
/// problem found (empty = valid).
pub fn validate_metrics_doc(doc: &JsonValue) -> Vec<String> {
    let mut errs = Vec::new();
    match expect_str(doc, "schema", &mut errs) {
        Some(METRICS_SCHEMA) => {}
        Some(other) => errs.push(format!("schema is `{other}`, expected `{METRICS_SCHEMA}`")),
        None => {}
    }
    expect_str(doc, "source", &mut errs);
    expect_str(doc, "epoch_unit", &mut errs);
    expect_u64(doc, "epoch_len", &mut errs);
    let Some(cells) = doc.get("cells").and_then(|c| c.as_arr()) else {
        errs.push("missing `cells` array".into());
        return errs;
    };
    if cells.is_empty() {
        errs.push("`cells` is empty — a metrics run must report at least one cell".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        let where_ = format!("cells[{i}]");
        expect_str(cell, "label", &mut errs);
        expect_u64(cell, "wall_millis", &mut errs);
        match cell.get("metrics") {
            Some(m) => validate_metric_map(m, &where_, &mut errs),
            None => errs.push(format!("{where_}: missing `metrics`")),
        }
        let Some(epochs) = cell.get("epochs").and_then(|e| e.as_arr()) else {
            errs.push(format!("{where_}: missing `epochs` array"));
            continue;
        };
        let mut last_tick = 0u64;
        for (j, epoch) in epochs.iter().enumerate() {
            let ew = format!("{where_}.epochs[{j}]");
            match expect_u64(epoch, "tick", &mut errs) {
                Some(t) if j > 0 && t <= last_tick => {
                    errs.push(format!("{ew}: ticks not strictly ascending"));
                    last_tick = t;
                }
                Some(t) => last_tick = t,
                None => {}
            }
            match epoch.get("metrics") {
                Some(m) => validate_metric_map(m, &ew, &mut errs),
                None => errs.push(format!("{ew}: missing `metrics`")),
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn minimal_valid_metrics_doc() {
        let doc = parse(
            r#"{"schema":"compresso.metrics.v1","source":"fig2","epoch_unit":"pages",
                "epoch_len":10,"cells":[{"label":"fig2/gcc","wall_millis":3,
                "metrics":{"x.total":{"type":"counter","value":7}},
                "epochs":[{"tick":10,"metrics":{"x.total":{"type":"counter","value":4}}},
                          {"tick":20,"metrics":{"x.total":{"type":"counter","value":7}}}]}]}"#,
        )
        .expect("parses");
        assert_eq!(validate_metrics_doc(&doc), Vec::<String>::new());
    }

    #[test]
    fn catches_bad_schema_and_structure() {
        let doc = parse(
            r#"{"schema":"wrong","source":"x","epoch_unit":"cycles","epoch_len":0,
                "cells":[{"label":"a","wall_millis":1,
                "metrics":{"h":{"type":"histogram","bounds":[1,2],"counts":[1],
                "count":9,"sum":0,"max":0,"p50":0,"p95":0,"p99":0}},
                "epochs":[{"tick":5,"metrics":{}},{"tick":5,"metrics":{}}]}]}"#,
        )
        .expect("parses");
        let errs = validate_metrics_doc(&doc);
        assert!(
            errs.iter().any(|e| e.contains("schema is `wrong`")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("counts.len")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("ascending")), "{errs:?}");
    }

    #[test]
    fn bucket_sum_past_u64_is_a_mismatch() {
        // The buckets sum to 2^64, which wraps to the stated count of 0.
        let doc = parse(
            r#"{"schema":"compresso.metrics.v1","source":"x","epoch_unit":"pages",
                "epoch_len":0,"cells":[{"label":"a","wall_millis":1,
                "metrics":{"h":{"type":"histogram","bounds":[1],
                "counts":[18446744073709551615,1],
                "count":0,"sum":0,"max":0,"p50":0,"p95":0,"p99":0}},"epochs":[]}]}"#,
        )
        .expect("parses");
        let errs = validate_metrics_doc(&doc);
        assert!(errs.iter().any(|e| e.contains("bucket sum")), "{errs:?}");
    }
}
