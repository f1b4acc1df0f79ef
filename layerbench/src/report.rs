//! Results, run parameters, the one-line JSON result, and the
//! parameter-checked comparison of two saved outputs.

use compresso_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of a saved output (`--out`).
pub const SCHEMA: &str = "compresso.layerbench.v1";

/// Parameters that name the code under test rather than the measurement:
/// two outputs may differ in these and still be compared.
const CODE_KEYS: [&str; 2] = ["git_rev", "src_digest"];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (in percent) of `values` (0 when empty).
pub fn percentile(values: &[u32], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    f64::from(v[rank - 1])
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one attempted system-run, cell or check; an `Err` counts as
    /// failed, and its reason is printed.
    pub fn attempt(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            self.lines.push(format!("FAILED {what}: {reason}"));
        }
    }

    /// A line of the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                json::escape(name),
                json::fmt_f64(value),
                json::escape(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints the parameters, the notes, every metric with its unit, and
    /// the JSON result as the last line.
    pub fn print(&self, params: &Params) {
        println!("params {}", params.json());
        for line in &self.lines {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<48} {value:>18.6} {unit}");
        }
        println!("{}", self.result_json());
    }

    /// Writes the parameters and the result as one JSON document.
    pub fn save(&self, path: &str, params: &Params) -> std::io::Result<()> {
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"params\": {}, \"result\": {}}}\n",
            params.json(),
            self.result_json()
        );
        std::fs::write(path, doc)
    }
}

/// The run parameters a result depends on, recorded in every output.
#[derive(Debug, Clone, Default)]
pub struct Params(BTreeMap<String, String>);

impl Params {
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }

    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json::escape(k), json::escape(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

type Saved = (BTreeMap<String, String>, BTreeMap<String, (f64, String)>);

fn load(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    let params = doc
        .get("params")
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| format!("{path}: missing params"))?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
        .collect();
    let metrics = doc
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| format!("{path}: missing result.metrics"))?
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), (value, unit)))
        })
        .collect();
    Ok((params, metrics))
}

/// Compares two saved outputs metric by metric; refuses when their run
/// parameters differ in anything but the code under test.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let (params_a, metrics_a) = load(a)?;
    let (params_b, metrics_b) = load(b)?;
    let mut keys: Vec<&String> = params_a.keys().chain(params_b.keys()).collect();
    keys.sort();
    keys.dedup();
    let differing: Vec<String> = keys
        .into_iter()
        .filter(|k| !CODE_KEYS.contains(&k.as_str()) && params_a.get(*k) != params_b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", params_a.get(k), params_b.get(k)))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "refusing to compare outputs whose parameters differ: {}",
            differing.join("; ")
        ));
    }
    let mut out = format!("{:<48} {:>16} {:>16} {:>8}\n", "metric", "a", "b", "b/a");
    for (name, (value_a, unit)) in &metrics_a {
        if let Some((value_b, _)) = metrics_b.get(name) {
            let _ = writeln!(
                out,
                "{name:<48} {value_a:>16.6} {value_b:>16.6} {:>8.3}  {unit}",
                ratio(*value_b, *value_a)
            );
        }
    }
    Ok(out)
}
