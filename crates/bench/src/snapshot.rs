//! The recorded perf trajectory: machine-timed medians plus
//! machine-independent counters, serialized as `BENCH_*.json`.
//!
//! `cargo run --release -p record-bench --bin perf_snapshot` measures
//! retargeting per model and compilation per kernel x model pair and
//! writes the snapshot JSON.  Two kinds of data live side by side:
//!
//! * **medians** (`median_ns`) — wall-clock, machine-dependent, the
//!   numbers future perf PRs diff against;
//! * **counters** (BDD node count, template/rule counts, emitted op and
//!   instruction-word counts, op-cache hit rate, unique-table probe
//!   length) — deterministic for a given source tree, so CI can fail a
//!   perf PR that silently changes *semantics* while claiming to only
//!   change *speed* (see [`counter_drift`]).
//!
//! Rows are laid out one per line by hand; the workspace JSON codec
//! ([`record_core::json`]) escapes their strings and parses checked-in
//! snapshots.

use record_core::json::Json;
use record_core::{CompileRequest, Histogram, Record, Report, RetargetOptions};
use record_targets::{control_kernels, kernels, models};
use std::fmt::Write as _;
use std::time::Instant;

/// The schema this tree measures and writes.
///
/// v2 over v1: per-phase median times (`"phases"`) on every row, and a
/// failure taxonomy (`fail_phase`/`fail_kind`/`fail_message`, from
/// [`record_core::CompileError::classify`]) on every `ok: false` compile
/// row.  v3 over v2: latency percentiles (`p50_ns`/`p95_ns`/`p99_ns`/
/// `max_ns`) on every timed row, read off a log-bucketed
/// [`record_core::Histogram`] over the per-iteration samples — like the
/// medians they are machine-dependent and *reported*, never gated.
/// `--check` accepts all versions; the failure-class gate only applies
/// against v2+ snapshots.
pub const SCHEMA: &str = "record-perf-snapshot/v3";

/// Tail-latency summary of one measurement series (v3 rows).
///
/// Percentiles come off a log₂-bucketed [`Histogram`], so they carry
/// bucket resolution (the bucket's upper bound, clamped to the exact
/// max) — the same readout the serving layer's `/metrics` histograms
/// report, which keeps bench rows and fleet dashboards comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// The percentile readout over one series of nanosecond samples.
fn latency_summary(samples: &[u128]) -> LatencySummary {
    let mut h = Histogram::new();
    for &s in samples {
        h.observe(u64::try_from(s).unwrap_or(u64::MAX));
    }
    LatencySummary {
        p50_ns: h.percentile(0.50),
        p95_ns: h.percentile(0.95),
        p99_ns: h.percentile(0.99),
        max_ns: h.max,
    }
}

/// One retargeting measurement.
#[derive(Debug, Clone)]
pub struct RetargetRow {
    pub model: &'static str,
    pub median_ns: u128,
    /// Tail latency over the measured runs (machine-dependent, not
    /// gated).
    pub latency: LatencySummary,
    /// Per-phase median times over the measured runs, in recording
    /// order (`parse`, `extract`, `template-gen`, `rule-gen`,
    /// `selector-gen`, `freeze`).
    pub phases: Vec<(&'static str, u128)>,
    /// Frozen BDD node count after retargeting (counter).
    pub bdd_nodes: usize,
    /// Extended template count (counter).
    pub templates: usize,
    /// Grammar rule count (counter).
    pub rules: usize,
    /// Retarget-time op-cache hit rate (counter, deterministic).
    pub op_cache_hit_rate: f64,
    /// Retarget-time unique-table mean probe length (counter,
    /// deterministic).
    pub unique_avg_probe_len: f64,
}

/// One compilation measurement (kernel x model).
#[derive(Debug, Clone)]
pub struct CompileRow {
    pub model: &'static str,
    pub kernel: &'static str,
    /// `false` when the kernel does not compile on this model (e.g. the
    /// data path lacks an operator); timings and counters are zero then
    /// and the `fail_*` fields say why.
    pub ok: bool,
    pub median_ns: u128,
    /// Tail latency over the measured runs (machine-dependent, not
    /// gated; zero on failure).
    pub latency: LatencySummary,
    /// Per-phase median times over the measured runs (`parse`, `lower`,
    /// `bind`, `select`, `emit`, `allocate`, `compact`); empty on
    /// failure.
    pub phases: Vec<(&'static str, u128)>,
    /// Emitted vertical RT ops (counter).
    pub ops: usize,
    /// Compacted instruction words (counter).
    pub words: usize,
    /// Session-local BDD nodes created by one compile (counter).
    pub scratch_nodes: usize,
    /// Session op-cache hit rate over one compile (counter).
    pub op_cache_hit_rate: f64,
    /// Phase the compile died in (label of
    /// [`record_core::CompilePhase`]); `None` when `ok`.
    pub fail_phase: Option<&'static str>,
    /// Failure-kind slug from [`record_core::FailureClass`], e.g.
    /// `missing-hardware(mul)` or `selector-gap`; `None` when `ok`.
    pub fail_kind: Option<String>,
    /// Human-readable error text; `None` when `ok`.
    pub fail_message: Option<String>,
}

/// A full snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub iters: usize,
    pub retarget: Vec<RetargetRow>,
    pub compile: Vec<CompileRow>,
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Per-phase medians over the reports of the measured runs, keeping the
/// first report's phase order.
fn phase_medians(reports: &[Report]) -> Vec<(&'static str, u128)> {
    let mut labels: Vec<&'static str> = Vec::new();
    for report in reports {
        for p in &report.phases {
            if !labels.contains(&p.label) {
                labels.push(p.label);
            }
        }
    }
    labels
        .into_iter()
        .map(|label| {
            let samples = reports
                .iter()
                .map(|r| r.phase_ns(label).unwrap_or(0) as u128)
                .collect();
            (label, median_ns(samples))
        })
        .collect()
}

/// Measures the snapshot: `iters` timed runs per measurement, median
/// reported.
pub fn measure(iters: usize) -> Snapshot {
    let iters = iters.max(1);
    let options = RetargetOptions::default();
    let mut retarget = Vec::new();
    let mut compile = Vec::new();
    for model in models() {
        let mut samples = Vec::with_capacity(iters);
        let mut reports = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            let target = Record::retarget(model.hdl, &options).expect("model retargets");
            std::hint::black_box(&target);
            samples.push(t.elapsed().as_nanos());
            reports.push(target.report().report.clone());
        }
        let target = Record::retarget(model.hdl, &options).expect("model retargets");
        retarget.push(RetargetRow {
            model: model.name,
            latency: latency_summary(&samples),
            median_ns: median_ns(samples),
            phases: phase_medians(&reports),
            bdd_nodes: target.manager().node_count(),
            templates: target.report().templates_extended,
            rules: target.report().rules,
            op_cache_hit_rate: target.manager().op_cache_hit_rate(),
            unique_avg_probe_len: target.manager().unique_avg_probe_len(),
        });
        // Straight-line kernels first (their rows are the regression
        // pins), then the control-flow kernels: on targets without a
        // program counter those fail with the `no-branch-path` class,
        // which the v2 failure-taxonomy gate records per pair.
        for kernel in kernels().into_iter().chain(control_kernels()) {
            let request = CompileRequest::new(kernel.source, kernel.function);
            // Counters via an explicit session (one compile, then read
            // the session gauges).
            let mut session = target.session();
            match session.compile(&request) {
                Ok(k) => {
                    let mut samples = Vec::with_capacity(iters);
                    let mut reports = Vec::with_capacity(iters);
                    for _ in 0..iters {
                        let t = Instant::now();
                        let timed = target.compile(&request).expect("compiles");
                        std::hint::black_box(&timed);
                        samples.push(t.elapsed().as_nanos());
                        reports.push(timed.report);
                    }
                    compile.push(CompileRow {
                        model: model.name,
                        kernel: kernel.name,
                        ok: true,
                        latency: latency_summary(&samples),
                        median_ns: median_ns(samples),
                        phases: phase_medians(&reports),
                        ops: k.ops.len(),
                        words: k.schedule.as_ref().map_or(0, |s| s.len()),
                        scratch_nodes: session.scratch_nodes(),
                        op_cache_hit_rate: session.bdd_op_cache_hit_rate(),
                        fail_phase: None,
                        fail_kind: None,
                        fail_message: None,
                    });
                }
                Err(e) => {
                    let class = e.classify();
                    compile.push(CompileRow {
                        model: model.name,
                        kernel: kernel.name,
                        ok: false,
                        median_ns: 0,
                        latency: LatencySummary::default(),
                        phases: Vec::new(),
                        ops: 0,
                        words: 0,
                        scratch_nodes: 0,
                        op_cache_hit_rate: 0.0,
                        fail_phase: Some(class.phase.label()),
                        fail_kind: Some(class.kind),
                        fail_message: Some(e.to_string()),
                    });
                }
            }
        }
    }
    Snapshot {
        iters,
        retarget,
        compile,
    }
}

/// Renders a phase list as a JSON object in recording order.
fn phases_json(phases: &[(&'static str, u128)]) -> String {
    let inner: Vec<String> = phases
        .iter()
        .map(|(label, ns)| format!("{}: {ns}", Json::str(*label)))
        .collect();
    format!("{{{}}}", inner.join(", "))
}

/// Renders the v3 percentile members of one row.
fn latency_json(l: &LatencySummary) -> String {
    format!(
        "\"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}",
        l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns
    )
}

impl Snapshot {
    /// Serializes the snapshot; `pre_pr` is an optional JSON value
    /// (typically carried over from the previous snapshot file) recording
    /// the numbers this tree was measured against.
    pub fn to_json(&self, pre_pr: Option<&Json>) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"iters\": {},", self.iters);
        if let Some(pre_pr) = pre_pr {
            let _ = writeln!(out, "  \"pre_pr\": {pre_pr},");
        }
        out.push_str("  \"retarget\": [\n");
        for (i, r) in self.retarget.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"model\": {}, \"median_ns\": {}, {}, \"phases\": {}, \"bdd_nodes\": {}, \"templates\": {}, \"rules\": {}, \"op_cache_hit_rate\": {:.4}, \"unique_avg_probe_len\": {:.4}}}",
                Json::str(r.model), r.median_ns, latency_json(&r.latency), phases_json(&r.phases), r.bdd_nodes, r.templates, r.rules, r.op_cache_hit_rate, r.unique_avg_probe_len
            );
            out.push_str(if i + 1 < self.retarget.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"compile\": [\n");
        for (i, c) in self.compile.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"model\": {}, \"kernel\": {}, \"ok\": {}, \"median_ns\": {}, {}, \"phases\": {}, \"ops\": {}, \"words\": {}, \"scratch_nodes\": {}, \"op_cache_hit_rate\": {:.4}",
                Json::str(c.model), Json::str(c.kernel), c.ok, c.median_ns, latency_json(&c.latency), phases_json(&c.phases), c.ops, c.words, c.scratch_nodes, c.op_cache_hit_rate
            );
            if let (Some(phase), Some(kind)) = (c.fail_phase, &c.fail_kind) {
                let _ = write!(
                    out,
                    ", \"fail_phase\": {}, \"fail_kind\": {}, \"fail_message\": {}",
                    Json::str(phase),
                    Json::str(kind),
                    Json::str(c.fail_message.as_deref().unwrap_or("")),
                );
            }
            out.push('}');
            out.push_str(if i + 1 < self.compile.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Counter drift check (the CI bench-smoke gate).
// ---------------------------------------------------------------------------

/// Schema version of a parsed snapshot (`1` for
/// `record-perf-snapshot/v1`, and so on).
///
/// # Errors
///
/// A message naming the unrecognized schema string.
pub fn schema_version(checked_in: &Json) -> Result<u32, String> {
    let schema = checked_in
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("<missing>");
    schema
        .strip_prefix("record-perf-snapshot/v")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unrecognized snapshot schema `{schema}`"))
}

/// Compares the machine-independent counters of a freshly measured
/// snapshot against a checked-in snapshot file, returning human-readable
/// drift findings (empty = no drift).
///
/// Only counters are compared — medians are machine-dependent and may
/// move freely; hit rates and probe lengths are deterministic but are
/// *reported*, not gated, because improving them is this trajectory's
/// whole point.  The comparison is bidirectional: a snapshot row with no
/// measured counterpart (a model or kernel silently dropped from the
/// suite) is drift too.
///
/// Version-gated: v1 snapshots (no failure taxonomy) get the counter
/// checks only; against v2 snapshots every failing pair's
/// `fail_phase`/`fail_kind` classification is gated too, so a pair
/// cannot silently change *why* it fails.
pub fn counter_drift(measured: &Snapshot, checked_in: &Json) -> Vec<String> {
    let mut drift = Vec::new();
    let version = match schema_version(checked_in) {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    // Snapshot rows the measurement no longer produces.
    for (section, key2) in [("retarget", None), ("compile", Some("kernel"))] {
        for row in checked_in
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let model = row.get("model").and_then(Json::as_str).unwrap_or("?");
            let kernel = key2.map(|k| row.get(k).and_then(Json::as_str).unwrap_or("?"));
            let found = match kernel {
                None => measured.retarget.iter().any(|r| r.model == model),
                Some(kernel) => measured
                    .compile
                    .iter()
                    .any(|c| c.model == model && c.kernel == kernel),
            };
            if !found {
                drift.push(match kernel {
                    None => format!("snapshot model `{model}` was not measured (dropped?)"),
                    Some(k) => {
                        format!("snapshot compile `{model}`/`{k}` was not measured (dropped?)")
                    }
                });
            }
        }
    }
    let num = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_f64);
    let empty = [];
    let rows = checked_in
        .get("retarget")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for r in &measured.retarget {
        let Some(row) = rows
            .iter()
            .find(|row| row.get("model").and_then(Json::as_str) == Some(r.model))
        else {
            drift.push(format!("model `{}` missing from snapshot", r.model));
            continue;
        };
        for (name, got) in [
            ("bdd_nodes", r.bdd_nodes as f64),
            ("templates", r.templates as f64),
            ("rules", r.rules as f64),
        ] {
            let want = num(row, name);
            if want != Some(got) {
                drift.push(format!(
                    "{}: {name} drifted: measured {got}, snapshot {want:?}",
                    r.model
                ));
            }
        }
    }
    let rows = checked_in
        .get("compile")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for c in &measured.compile {
        let Some(row) = rows.iter().find(|row| {
            row.get("model").and_then(Json::as_str) == Some(c.model)
                && row.get("kernel").and_then(Json::as_str) == Some(c.kernel)
        }) else {
            drift.push(format!(
                "compile `{}`/`{}` missing from snapshot",
                c.model, c.kernel
            ));
            continue;
        };
        let ok = row.get("ok") == Some(&Json::Bool(true));
        if ok != c.ok {
            drift.push(format!(
                "{}/{}: compile outcome drifted: snapshot ok={ok} -> measured ok={}",
                c.model, c.kernel, c.ok
            ));
            continue;
        }
        for (name, got) in [("ops", c.ops as f64), ("words", c.words as f64)] {
            let want = num(row, name);
            if want != Some(got) {
                drift.push(format!(
                    "{}/{}: {name} drifted: snapshot {want:?} -> measured {got}",
                    c.model, c.kernel
                ));
            }
        }
        // The failure-class gate (v2 snapshots only): a pair that fails
        // for a *different reason* than recorded is semantic drift even
        // though the pass/fail table looks unchanged.
        if version >= 2 && !c.ok {
            let want_phase = row.get("fail_phase").and_then(Json::as_str).unwrap_or("?");
            let want_kind = row.get("fail_kind").and_then(Json::as_str).unwrap_or("?");
            let got_phase = c.fail_phase.unwrap_or("?");
            let got_kind = c.fail_kind.as_deref().unwrap_or("?");
            if (want_phase, want_kind) != (got_phase, got_kind) {
                drift.push(format!(
                    "{}/{}: failure class drifted: snapshot {want_phase}/{want_kind} -> \
                     measured {got_phase}/{got_kind}",
                    c.model, c.kernel
                ));
            }
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_core::json;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            iters: 2,
            retarget: vec![RetargetRow {
                model: "demo",
                median_ns: 123,
                latency: LatencySummary {
                    p50_ns: 123,
                    p95_ns: 127,
                    p99_ns: 127,
                    max_ns: 125,
                },
                phases: vec![("parse", 60), ("extract", 50)],
                bdd_nodes: 45,
                templates: 6,
                rules: 7,
                op_cache_hit_rate: 0.5,
                unique_avg_probe_len: 1.25,
            }],
            compile: vec![
                CompileRow {
                    model: "demo",
                    kernel: "fir",
                    ok: true,
                    median_ns: 999,
                    latency: LatencySummary {
                        p50_ns: 1023,
                        p95_ns: 1023,
                        p99_ns: 1023,
                        max_ns: 1001,
                    },
                    phases: vec![("select", 500), ("emit", 400)],
                    ops: 10,
                    words: 8,
                    scratch_nodes: 3,
                    op_cache_hit_rate: 0.75,
                    fail_phase: None,
                    fail_kind: None,
                    fail_message: None,
                },
                CompileRow {
                    model: "demo",
                    kernel: "matmul",
                    ok: false,
                    median_ns: 0,
                    latency: LatencySummary::default(),
                    phases: Vec::new(),
                    ops: 0,
                    words: 0,
                    scratch_nodes: 0,
                    op_cache_hit_rate: 0.0,
                    fail_phase: Some("select"),
                    fail_kind: Some("missing-hardware(mul)".to_owned()),
                    fail_message: Some("no rule for `mul`".to_owned()),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let snap = sample_snapshot();
        // A control character in the carried anchor must come back as
        // JSON, not as Rust's `\u{1}` debug escape.
        let pre_pr = Json::obj(vec![("note", Json::str("seed \u{1}"))]);
        let text = snap.to_json(Some(&pre_pr));
        let parsed = json::parse(&text).expect("parses");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(schema_version(&parsed), Ok(3));
        assert_eq!(parsed.get("pre_pr"), Some(&pre_pr));
        // Phases and the failure taxonomy survive the round trip.
        let rows = parsed.get("compile").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0]
                .get("phases")
                .and_then(|p| p.get("select"))
                .and_then(Json::as_f64),
            Some(500.0)
        );
        assert_eq!(
            rows[1].get("fail_kind").and_then(Json::as_str),
            Some("missing-hardware(mul)")
        );
        // v3 percentile members ride on every timed row.
        assert_eq!(rows[0].get("p50_ns").and_then(Json::as_f64), Some(1023.0));
        assert_eq!(rows[0].get("max_ns").and_then(Json::as_f64), Some(1001.0));
        let retargets = parsed.get("retarget").and_then(Json::as_arr).unwrap();
        assert_eq!(
            retargets[0].get("p95_ns").and_then(Json::as_f64),
            Some(127.0)
        );
        // No drift against itself.
        assert!(counter_drift(&snap, &parsed).is_empty());
        // A counter change is caught.
        let mut other = snap.clone();
        other.retarget[0].bdd_nodes = 46;
        let findings = counter_drift(&other, &parsed);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("bdd_nodes"));
        // Dropping a measured row is caught too (the gate is
        // bidirectional).
        let mut dropped = snap.clone();
        dropped.compile.clear();
        let findings = counter_drift(&dropped, &parsed);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("was not measured"));
    }

    #[test]
    fn failure_class_drift_is_gated_on_v2_only() {
        let snap = sample_snapshot();
        let parsed = json::parse(&snap.to_json(None)).expect("parses");
        // Same pair still fails, but for a different reason: caught.
        let mut reclassified = snap.clone();
        reclassified.compile[1].fail_kind = Some("selector-gap".to_owned());
        let findings = counter_drift(&reclassified, &parsed);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("missing-hardware(mul) -> measured select/selector-gap"),
            "{findings:?}"
        );
        // The same comparison against a v1 snapshot (no fail_* members)
        // is not gated: v1 recorded no classes to hold the tree to.
        let v1_json = snap
            .to_json(None)
            .replace(SCHEMA, "record-perf-snapshot/v1");
        let v1 = json::parse(&v1_json).expect("parses");
        assert!(counter_drift(&reclassified, &v1).is_empty());
        // An unknown schema is itself a finding, not a silent pass.
        let bad = json::parse("{\"schema\": \"something-else\"}").expect("parses");
        let findings = counter_drift(&snap, &bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("unrecognized"));
    }

    #[test]
    fn strings_survive_unicode_and_escapes() {
        // A checked-in anchor written with `\uXXXX` escapes (a surrogate
        // pair included) is carried into the next snapshot unchanged.
        let pre_pr = json::parse(r#"{"note": "a\u00e9b \ud83d\ude00"}"#).expect("parses");
        // Row strings holding multi-byte UTF-8 and characters JSON must
        // escape come back as written.
        let mut snap = sample_snapshot();
        snap.compile[1].fail_message = Some("em — dash \"quoted\"\n\u{1F600}".to_owned());
        let parsed = json::parse(&snap.to_json(Some(&pre_pr))).expect("parses");
        assert_eq!(
            parsed
                .get("pre_pr")
                .and_then(|p| p.get("note"))
                .and_then(Json::as_str),
            Some("a\u{e9}b \u{1F600}")
        );
        let rows = parsed.get("compile").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[1].get("fail_message").and_then(Json::as_str),
            snap.compile[1].fail_message.as_deref()
        );
    }
}
