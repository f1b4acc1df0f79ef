//! The exporter: renders a [`MetricsDoc`] as `compresso.metrics.v1`
//! JSON.

use crate::epoch::Epoch;
use crate::json::{escape, fmt_f64};
use crate::metric::HistogramSnapshot;
use crate::registry::{MetricValue, Snapshot};
use crate::schema::{MetricsDoc, METRICS_SCHEMA};
use std::fmt::Write as _;
use std::path::Path;

fn render_histogram(out: &mut String, h: &HistogramSnapshot) {
    let join = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = write!(
        out,
        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"bounds\":[{}],\"counts\":[{}]}}",
        h.count,
        h.sum,
        h.max,
        fmt_f64(h.mean()),
        h.p50(),
        h.p95(),
        h.p99(),
        join(&h.bounds),
        join(&h.counts),
    );
}

fn render_metric_map(out: &mut String, snapshot: &Snapshot, indent: &str) {
    out.push('{');
    for (i, (name, value)) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{indent}  \"{}\": ", escape(name));
        match value {
            MetricValue::Counter(c) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{c}}}");
            }
            MetricValue::Gauge(g) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{g}}}");
            }
            MetricValue::Histogram(h) => render_histogram(out, h),
        }
    }
    if !snapshot.metrics.is_empty() {
        let _ = write!(out, "\n{indent}");
    }
    out.push('}');
}

fn render_epochs(out: &mut String, epochs: &[Epoch], indent: &str) {
    out.push('[');
    for (i, epoch) in epochs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{indent}  {{\"tick\":{},\"metrics\":", epoch.tick);
        render_metric_map(out, &epoch.snapshot, &format!("{indent}  "));
        out.push('}');
    }
    if !epochs.is_empty() {
        let _ = write!(out, "\n{indent}");
    }
    out.push(']');
}

/// Renders `doc` as `compresso.metrics.v1` JSON.
pub fn render_doc(doc: &MetricsDoc) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"source\": \"{}\",\n  \
             \"epoch_unit\": \"{}\",\n  \"epoch_len\": {},\n  \"cells\": [",
        escape(&doc.source),
        escape(&doc.epoch_unit),
        doc.epoch_len
    );
    for (i, cell) in doc.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\n      \"label\": \"{}\",\n      \"wall_millis\": {},\n      \
                 \"metrics\": ",
            escape(&cell.label),
            cell.wall_millis
        );
        render_metric_map(&mut out, &cell.report.last, "      ");
        out.push_str(",\n      \"epochs\": ");
        render_epochs(&mut out, &cell.report.epochs, "      ");
        out.push_str("\n    }");
    }
    if !doc.cells.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Writes `doc` to `path` as `compresso.metrics.v1` JSON.
pub fn write_doc(path: &Path, doc: &MetricsDoc) -> std::io::Result<()> {
    std::fs::write(path, render_doc(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::MetricsReport;
    use crate::json::parse;
    use crate::metric::{Counter, Gauge, LatencyHistogram};
    use crate::registry::Registry;
    use crate::schema::{validate_metrics_doc, CellMetrics};

    fn sample_doc() -> MetricsDoc {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(42);
        reg.register_counter("compresso.page_overflow.total", &c);
        let g = Gauge::new();
        g.set(-3);
        reg.register_gauge("balloon.held_pages", &g);
        let h = LatencyHistogram::with_bounds(&[10, 100]);
        h.record(7);
        h.record(5_000);
        reg.register_histogram("dram.bank00.latency", &h);
        let snap = reg.snapshot();
        let report = MetricsReport {
            last: snap.clone(),
            epochs: vec![crate::epoch::Epoch {
                tick: 100,
                snapshot: snap,
            }],
            epoch_len: 100,
        };
        MetricsDoc::new(
            "test",
            "cycles",
            100,
            vec![CellMetrics {
                label: "cell/a".into(),
                wall_millis: 9,
                report,
            }],
        )
    }

    #[test]
    fn json_output_parses_and_validates() {
        let text = render_doc(&sample_doc());
        let parsed = parse(&text).expect("valid json");
        assert_eq!(
            validate_metrics_doc(&parsed),
            Vec::<String>::new(),
            "{text}"
        );
        let cell = &parsed.get("cells").unwrap().as_arr().unwrap()[0];
        let hist = cell
            .get("metrics")
            .unwrap()
            .get("dram.bank00.latency")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(5000));
    }
}
