//! The metric catalogue and the report a run prints.
//!
//! Every workload reports the same end-to-end metrics (the ones
//! `BENCHMARK.json` bounds) and, in a traced run, the same per-layer
//! metrics — zero where a layer does no work on that workload. The
//! workload-specific end-to-end figures (`batch_s`, `read_ca_mb_s`,
//! `read_p99_ms`, …) are printed as a table above the result line.

use obs::json::JsonWriter;
#[cfg(test)]
use obs::json::{self, JsonValue};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, from the traced run. Rates and
/// sizes are per workload operation (one batch, one storage operation,
/// one request, one window) unless the unit says otherwise.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("dass.search.scan_ms", "ms"),
    ("dass.vca.build_ms", "ms"),
    ("dass.plan.build_ms", "ms"),
    ("dass.plan.exec_s", "s"),
    ("dass.vca.convert_s", "s"),
    ("dass.rca.create_s", "s"),
    ("dasf.open.count", "count"),
    ("dasf.open_ms", "ms"),
    ("dasf.verify_s", "s"),
    ("dasf.verify_mb_s", "MB/s"),
    ("dasf.codec.decode_mb_s", "MB/s"),
    ("dasf.codec.encode_mb_s", "MB/s"),
    ("dasf.read.bytes", "bytes"),
    ("dasf.write.bytes", "bytes"),
    ("dasf.pool.hit_ratio", "ratio"),
    ("dasf.alloc.bytes", "bytes"),
    ("minimpi.p2p.messages.cpf", "count"),
    ("minimpi.p2p.messages.ca", "count"),
    ("minimpi.p2p.bytes.cpf", "bytes"),
    ("minimpi.p2p.bytes.ca", "bytes"),
    ("dasa.prepare_master_s", "s"),
    ("dasa.apply_s", "s"),
    ("arrayudf.busy_ratio", "ratio"),
    ("dasa.local_similarity_s", "s"),
    ("dsp.fft_real_ms", "ms"),
    ("dsp.resample_ms", "ms"),
    ("dsp.filtfilt_ms", "ms"),
    ("dsp.detrend_ms", "ms"),
    ("dassd.cache.hit_ratio", "ratio"),
    ("dassd.cache.evict", "count"),
    ("dassd.server.read_mean_ms", "ms"),
    ("dassd.wire_ms", "ms"),
    ("dassd.server.eval_mean_ms", "ms"),
    ("dasl.compile_ms", "ms"),
    ("dassd.bytes_served", "bytes"),
    ("dassd.busy", "count"),
    ("ingest.window_mean_ms", "ms"),
    ("ingest.verify_per_read", "ratio"),
    ("ingest.admitted", "count"),
    ("ingest.quarantined", "count"),
    ("ingest.windows_emitted", "count"),
    ("ingest.gen_late_ms", "ms"),
    ("unattributed_s", "s"),
    ("obs.trace_overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Fill `catalogue` from `values` by name; names a workload did not
/// measure read 0.
pub fn complete(catalogue: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    catalogue
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// What one run of one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    /// Every oracle agreed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A JSON number for `v`: shortest round-trip digits; non-finite values
/// (never expected) become 0 so the line stays valid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics":
    /// {name: {"value", "unit"}}}`.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct")
            .raw(if self.correct { "true" } else { "false" });
        w.key("attempted").uint(self.attempted);
        w.key("failed").uint(self.failed);
        w.key("metrics").begin_object();
        for m in &self.metrics {
            w.key(&m.name).begin_object();
            w.key("value").raw(&number(m.value));
            w.key("unit").string(&m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The report in the integer-only JSON subset [`obs::json`] reads
    /// back exactly: values travel as their `f64` bit patterns, the
    /// verdict as 0/1.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload").string(&self.workload);
        w.key("seed").uint(self.seed);
        w.key("correct").uint(u64::from(self.correct));
        w.key("attempted").uint(self.attempted);
        w.key("failed").uint(self.failed);
        w.key("metrics").begin_array();
        for m in &self.metrics {
            w.begin_object();
            w.key("name").string(&m.name);
            w.key("unit").string(&m.unit);
            w.key("bits").uint(m.value.to_bits());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parse [`Report::to_json`] output.
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Report, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let obj = as_object(&root, "report")?;
        let num = |o: &BTreeMap<String, JsonValue>, k: &str| match o.get(k) {
            Some(JsonValue::Number(n)) => Ok(*n),
            _ => Err(format!("report: missing number `{k}`")),
        };
        let text_of = |o: &BTreeMap<String, JsonValue>, k: &str| match o.get(k) {
            Some(JsonValue::String(s)) => Ok(s.clone()),
            _ => Err(format!("report: missing string `{k}`")),
        };
        let Some(JsonValue::Array(raw)) = obj.get("metrics") else {
            return Err("report: missing `metrics` array".into());
        };
        let metrics = raw
            .iter()
            .map(|m| {
                let m = as_object(m, "metric")?;
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    value: f64::from_bits(num(m, "bits")?),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            workload: text_of(obj, "workload")?,
            seed: num(obj, "seed")?,
            correct: num(obj, "correct")? != 0,
            attempted: num(obj, "attempted")?,
            failed: num(obj, "failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
fn as_object<'a>(v: &'a JsonValue, what: &str) -> Result<&'a BTreeMap<String, JsonValue>, String> {
    match v {
        JsonValue::Object(o) => Ok(o),
        _ => Err(format!("{what}: expected an object")),
    }
}

/// Render `metrics` as an aligned `name value unit` table.
pub fn render_metrics(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        out += &format!("  {:<28} {:>16.6} {}\n", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            workload: "serve_mixed".into(),
            seed: 42,
            correct: true,
            attempted: 2081,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 0.012_345_678_9),
                Metric::new("dassd.wire_ms", "ms", -0.125),
                Metric::new("peak_rss_mb", "MB", 140.0),
            ],
        }
    }

    #[test]
    fn report_round_trips_exactly_through_obs_json() {
        let r = sample();
        let text = r.to_json();
        assert!(obs::json::parse(&text).is_ok());
        assert_eq!(Report::from_json(&text).unwrap(), r);
        let mut wrong = r.clone();
        wrong.correct = false;
        assert_eq!(Report::from_json(&wrong.to_json()).unwrap(), wrong);
        assert!(Report::from_json("{\"workload\":\"x\"}").is_err());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = sample().result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":2081,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.0123456789,\"unit\":\"s\"}"));
        assert!(line.contains("\"dassd.wire_ms\":{\"value\":-0.125,\"unit\":\"ms\"}"));
        assert!(line.contains("\"peak_rss_mb\":{\"value\":140.0,\"unit\":\"MB\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn catalogues_are_complete_and_unique() {
        let mut values = BTreeMap::new();
        values.insert("dasf.open.count", 6.0);
        let layers = complete(&PER_LAYER, &values);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers[6].value, 6.0);
        assert!(layers
            .iter()
            .filter(|m| m.name != "dasf.open.count")
            .all(|m| m.value == 0.0));
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn benchmark_manifest_lists_the_catalogues() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(manifest) else {
            return; // a bare copy of the benchmark directory
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
