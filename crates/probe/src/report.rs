//! Per-run aggregates: phase times and counter snapshots.
//!
//! A [`Report`] is the always-on, low-altitude summary of one pipeline
//! run — cheap enough to attach to every compilation result, structured
//! enough to serialize per-request (the serving layer ships these on
//! the wire, `perf_snapshot` takes medians over them).

use std::fmt;

/// One phase measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseNs {
    /// Phase label (the instrumentation vocabulary is documented in
    /// ARCHITECTURE.md's Observability section).
    pub label: &'static str,
    /// Wall-clock nanoseconds spent in the phase.
    pub ns: u64,
}

/// One named counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterVal {
    pub name: &'static str,
    pub value: u64,
}

/// Phase times and counters of one run (one compilation, one retarget).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Phases in execution order.  Labels are unique: recording a label
    /// twice accumulates into the existing entry.
    pub phases: Vec<PhaseNs>,
    /// Counters in recording order; names are unique, values accumulate.
    pub counters: Vec<CounterVal>,
}

impl Report {
    /// An empty report with room for `phases`/`counters` entries.
    pub fn with_capacity(phases: usize, counters: usize) -> Report {
        Report {
            phases: Vec::with_capacity(phases),
            counters: Vec::with_capacity(counters),
        }
    }

    /// Records `ns` nanoseconds under `label`, accumulating on repeat.
    pub fn phase(&mut self, label: &'static str, ns: u64) {
        match self.phases.iter_mut().find(|p| p.label == label) {
            Some(p) => p.ns += ns,
            None => self.phases.push(PhaseNs { label, ns }),
        }
    }

    /// Adds `value` to counter `name`, creating it on first use.
    pub fn count(&mut self, name: &'static str, value: u64) {
        match self.counters.iter_mut().find(|c| c.name == name) {
            Some(c) => c.value += value,
            None => self.counters.push(CounterVal { name, value }),
        }
    }

    /// Nanoseconds recorded under `label`, if the phase ran.
    pub fn phase_ns(&self, label: &str) -> Option<u64> {
        self.phases.iter().find(|p| p.label == label).map(|p| p.ns)
    }

    /// Value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Sum of all phase times.
    ///
    /// Phases are recorded flat (no parent/child overlap), so the sum
    /// is the instrumented fraction of the run's wall clock.
    pub fn phase_total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }

    /// Renders the report as an aligned human-readable table:
    /// phases with times and percentage of the instrumented total,
    /// then counters.
    pub fn render_table(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let total = self.phase_total_ns().max(1);
        let width = self
            .phases
            .iter()
            .map(|p| p.label.len())
            .chain(self.counters.iter().map(|c| c.name.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:width$}  {:>12}  {:>5.1}%",
                p.label,
                format_ns(p.ns),
                100.0 * p.ns as f64 / total as f64,
            );
        }
        if !self.phases.is_empty() && !self.counters.is_empty() {
            let _ = writeln!(out, "  {:-<width$}", "");
        }
        for c in &self.counters {
            let _ = writeln!(out, "  {:width$}  {:>12}", c.name, c.value);
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table("report"))
    }
}

/// Renders nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub(crate) fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}
