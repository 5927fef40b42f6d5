//! The metric catalogue and the result line.
//!
//! Names and units here must match `BENCHMARK.json` (a unit test holds
//! them together).  With `--trace 0` a run reports every end-to-end
//! metric; with `--trace 1` every per-layer metric, where a layer the
//! workload's timed operations never enter reports 0.

use record_core::Report;
use record_serve::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.geomean", "ms"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p99", "ms"),
    ("code_words", "count"),
    ("mem_accesses", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.  Times are per-call means.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("hdl.parse_us", "us"),
    ("isex.extract_us", "us"),
    ("rtl.template-gen_us", "us"),
    ("grammar.rule-gen_us", "us"),
    ("selgen.selector-gen_us", "us"),
    ("bdd.freeze_us", "us"),
    ("rtl.templates", "count"),
    ("grammar.rules", "count"),
    ("bdd.nodes", "count"),
    ("bdd.op-cache-hit-rate", "ratio"),
    ("ir.parse_us", "us"),
    ("ir.lower_us", "us"),
    ("codegen.bind_us", "us"),
    ("selgen.select_us", "us"),
    ("codegen.emit_us", "us"),
    ("regalloc.allocate_us", "us"),
    ("compact.compact_us", "us"),
    ("codegen.ops", "count"),
    ("compact.words", "count"),
    ("selgen.rules-tried", "count"),
    ("regalloc.reloads-eliminated", "count"),
    ("regalloc.spills", "count"),
    ("bdd.session-nodes", "count"),
    ("compact.pack-ratio", "ratio"),
    ("bdd.session-op-cache-hit-rate", "ratio"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.cache-lookup_us", "us"),
    ("serve.pool-checkout_us", "us"),
    ("serve.server-request_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache-hit-ratio", "ratio"),
    ("serve.pool-reuse-ratio", "ratio"),
    ("serve.retargets", "count"),
    ("serve.evictions", "count"),
    ("serve.rejected", "count"),
    ("probe.recorder-cost_us", "us"),
    ("probe.trace-overhead_pct", "%"),
    ("probe.unattributed_pct", "%"),
];

/// Retarget report phase labels and the per-layer metric each feeds.
pub const RETARGET_PHASES: [(&str, &str); 6] = [
    ("parse", "hdl.parse_us"),
    ("extract", "isex.extract_us"),
    ("template-gen", "rtl.template-gen_us"),
    ("rule-gen", "grammar.rule-gen_us"),
    ("selector-gen", "selgen.selector-gen_us"),
    ("freeze", "bdd.freeze_us"),
];

/// Compile report phase labels and the per-layer metric each feeds.
pub const COMPILE_PHASES: [(&str, &str); 7] = [
    ("parse", "ir.parse_us"),
    ("lower", "ir.lower_us"),
    ("bind", "codegen.bind_us"),
    ("select", "selgen.select_us"),
    ("emit", "codegen.emit_us"),
    ("allocate", "regalloc.allocate_us"),
    ("compact", "compact.compact_us"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Busy time per layer: benchmark-side spans, plus the phase times a
/// returned report carries.  Each layer's mean is over its own calls.
#[derive(Debug, Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, (u128, u64)>,
}

impl Spans {
    /// Records one call of `metric`'s layer that took `ns`.
    pub fn add(&mut self, metric: &'static str, ns: u64) {
        let (total, calls) = self.layers.entry(metric).or_default();
        *total += u128::from(ns);
        *calls += 1;
    }

    /// Records every phase of `report` named in `phases` (a phase the
    /// report lacks counts as a call that took no time).
    pub fn add_report(&mut self, report: &Report, phases: &[(&str, &'static str)]) {
        for &(label, metric) in phases {
            self.add(metric, report.phase_ns(label).unwrap_or(0));
        }
    }

    /// Total span time, in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.layers.values().map(|(ns, _)| ns).sum()
    }

    /// Writes each layer's per-call mean, in microseconds.
    pub fn write_means(&self, out: &mut Values) {
        for (&metric, &(ns, calls)) in &self.layers {
            out.insert(metric, ns as f64 / calls.max(1) as f64 / 1e3);
        }
    }
}

/// Renders the result line: every metric of `catalogue`, taken from
/// `values` (per-layer metrics a workload does not touch read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let doc = record_serve::parse_json(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn phase_metrics_are_catalogued() {
        for (_, metric) in RETARGET_PHASES.iter().chain(&COMPILE_PHASES) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("setup_s", 0.25);
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        let doc = record_serve::parse_json(&line).expect("result line is JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = doc.get("metrics").expect("metrics");
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name}");
        }
    }
}
