//! Fleet metrics: counters, gauges, and log-bucketed latency histograms,
//! recorded in lock-free shards and merged only at read time.
//!
//! The design splits *recording* from *reading*:
//!
//! * **Recording** happens on [`MetricsShard`]s — plain arrays of
//!   atomics, one slot per registered metric.  A worker thread owns (or
//!   shares) a shard and records with `fetch_add`/`fetch_max`, never a
//!   lock: the compile hot path stays wait-free no matter how often the
//!   scrape endpoint reads.
//! * **Reading** ([`MetricsRegistry::counter_value`],
//!   [`MetricsRegistry::histogram`], [`MetricsRegistry::render_prometheus`])
//!   walks every shard and sums.  Scrapes are rare and cheap; they pay
//!   the merge so the writers never do.
//!
//! Histograms use power-of-two buckets: bucket *i* counts values whose
//! bit length is *i* (bucket 0 is exactly zero), so observing is two
//! instructions (`leading_zeros` + `fetch_add`) and merging is vector
//! addition.
//!
//! The registry is built once ([`MetricsBuilder`]) so every metric has a
//! fixed slot index; shard creation and *labeled* counter families (rare
//! events like per-class failure counts) take a mutex, but neither is on
//! a request's hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram bucket count: bucket `i` holds values with bit length `i`
/// (bucket 0 = the value zero), so 65 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value falls in: its bit length (0 for zero).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `i` holds (`2^i - 1`; 0 for bucket 0).
#[inline]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// Slot index of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Slot index of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Slot index of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Slot index of a registered labeled counter family (dynamic label
/// values, e.g. failure classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyId(usize);

/// What the exposition format needs to know about one metric.
#[derive(Debug, Clone)]
struct MetricDesc {
    name: String,
    help: String,
    /// Fixed label pairs rendered into every sample of this series.
    labels: Vec<(String, String)>,
}

impl MetricDesc {
    fn new(name: &str, help: &str, labels: &[(&str, &str)]) -> MetricDesc {
        MetricDesc {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        }
    }
}

/// Declares the metric schema; [`MetricsBuilder::build`] freezes it into
/// a [`MetricsRegistry`] with fixed slot indices.
#[derive(Debug, Default)]
pub struct MetricsBuilder {
    counters: Vec<MetricDesc>,
    gauges: Vec<MetricDesc>,
    histograms: Vec<MetricDesc>,
    families: Vec<(MetricDesc, String)>,
}

impl MetricsBuilder {
    /// An empty schema.
    pub fn new() -> MetricsBuilder {
        MetricsBuilder::default()
    }

    /// Registers a monotonically increasing counter; `labels` are fixed
    /// label pairs (several counters may share a name with different
    /// labels, forming one exposition family).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        self.counters.push(MetricDesc::new(name, help, labels));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge (a set/adjust value, e.g. a queue depth).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        self.gauges.push(MetricDesc::new(name, help, labels));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a log-bucketed histogram.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramId {
        self.histograms.push(MetricDesc::new(name, help, labels));
        HistogramId(self.histograms.len() - 1)
    }

    /// Registers a counter family whose series are keyed by a dynamic
    /// value of `label_key` (e.g. `class` for failure classes).
    /// Incrementing takes a mutex — reserve families for rare events.
    pub fn counter_family(&mut self, name: &str, help: &str, label_key: &str) -> FamilyId {
        self.families
            .push((MetricDesc::new(name, help, &[]), label_key.to_owned()));
        FamilyId(self.families.len() - 1)
    }

    /// Freezes the schema.
    pub fn build(self) -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                counters: self.counters,
                histograms: self.histograms,
                gauges: self.gauges.iter().map(|_| AtomicI64::new(0)).collect(),
                gauge_descs: self.gauges,
                families: self.families,
                family_series: Mutex::new(BTreeMap::new()),
                shards: Mutex::new(Vec::new()),
            }),
        }
    }
}

struct RegistryInner {
    counters: Vec<MetricDesc>,
    histograms: Vec<MetricDesc>,
    gauge_descs: Vec<MetricDesc>,
    /// Gauges are set, not accumulated, so they live once on the registry
    /// (atomic store/add — still lock-free) instead of per shard.
    gauges: Vec<AtomicI64>,
    families: Vec<(MetricDesc, String)>,
    /// Dynamic series of the labeled families: (family, label value) →
    /// count.  Mutex-guarded; only rare events (failures) land here.
    family_series: Mutex<BTreeMap<(usize, String), u64>>,
    /// Every shard ever handed out; locked at shard creation and scrape
    /// time only.
    shards: Mutex<Vec<Arc<MetricsShard>>>,
}

/// A frozen metric schema plus all recorded values.  Cheap to clone
/// (`Arc` inside); readers merge shards on demand.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.len())
            .field("gauges", &self.inner.gauges.len())
            .field("histograms", &self.inner.histograms.len())
            .field(
                "shards",
                &self.inner.shards.lock().expect("shards lock").len(),
            )
            .finish()
    }
}

/// One recording shard: a flat array of atomics per metric kind.
///
/// Give each worker thread its own shard to keep cache lines unshared on
/// the hot path; sharing one shard between threads is still correct
/// (every slot is an atomic), just contended.
#[derive(Debug)]
pub struct MetricsShard {
    counters: Box<[AtomicU64]>,
    histograms: Box<[HistShard]>,
}

#[derive(Debug)]
struct HistShard {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl MetricsShard {
    /// Adds `n` to a counter.  Wait-free.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id.0].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter.  Wait-free.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Records one histogram observation.  Wait-free: a `leading_zeros`,
    /// two `fetch_add`s and a `fetch_max`.
    #[inline]
    pub fn observe(&self, id: HistogramId, value: u64) {
        let h = &self.histograms[id.0];
        h.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }
}

impl MetricsRegistry {
    /// Creates a new recording shard registered with this registry.
    /// Takes the shard-list mutex — do this at worker startup, not per
    /// request.
    pub fn shard(&self) -> Arc<MetricsShard> {
        let shard = Arc::new(MetricsShard {
            counters: self
                .inner
                .counters
                .iter()
                .map(|_| AtomicU64::new(0))
                .collect(),
            histograms: self
                .inner
                .histograms
                .iter()
                .map(|_| HistShard::new())
                .collect(),
        });
        self.inner
            .shards
            .lock()
            .expect("shards lock")
            .push(Arc::clone(&shard));
        shard
    }

    /// Sets a gauge to an absolute value.  Lock-free.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, value: i64) {
        self.inner.gauges[id.0].store(value, Ordering::Relaxed);
    }

    /// Adjusts a gauge by a delta.  Lock-free.
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, delta: i64) {
        self.inner.gauges[id.0].fetch_add(delta, Ordering::Relaxed);
    }

    /// The current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.inner.gauges[id.0].load(Ordering::Relaxed)
    }

    /// Increments a labeled-family series.  Takes a mutex — for rare
    /// events (failure classes), not hot-path counters.
    pub fn incr_family(&self, id: FamilyId, label_value: &str) {
        let mut series = self.inner.family_series.lock().expect("family lock");
        *series.entry((id.0, label_value.to_owned())).or_insert(0) += 1;
    }

    /// The merged value of a counter across all shards.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.inner
            .shards
            .lock()
            .expect("shards lock")
            .iter()
            .map(|s| s.counters[id.0].load(Ordering::Relaxed))
            .sum()
    }

    /// The labeled-family series as (label value, count) pairs, sorted by
    /// label value.
    pub fn family_values(&self, id: FamilyId) -> Vec<(String, u64)> {
        self.inner
            .family_series
            .lock()
            .expect("family lock")
            .iter()
            .filter(|((f, _), _)| *f == id.0)
            .map(|((_, label), count)| (label.clone(), *count))
            .collect()
    }

    /// The merged histogram across all shards.
    pub fn histogram(&self, id: HistogramId) -> Histogram {
        let mut merged = Histogram::new();
        for shard in self.inner.shards.lock().expect("shards lock").iter() {
            let h = &shard.histograms[id.0];
            for (slot, bucket) in merged.buckets.iter_mut().zip(h.buckets.iter()) {
                *slot += bucket.load(Ordering::Relaxed);
            }
            merged.sum = merged.sum.wrapping_add(h.sum.load(Ordering::Relaxed));
            merged.max = merged.max.max(h.max.load(Ordering::Relaxed));
        }
        merged
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP`/`# TYPE` headers per family,
    /// `_bucket`/`_sum`/`_count` series per histogram with cumulative
    /// power-of-two `le` bounds.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        let mut header = |out: &mut String, name: &str, help: &str, kind: &str| {
            if !seen.iter().any(|s| s == name) {
                seen.push(name.to_owned());
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            }
        };
        for (i, desc) in self.inner.counters.iter().enumerate() {
            header(&mut out, &desc.name, &desc.help, "counter");
            let value = self.counter_value(CounterId(i));
            out.push_str(&format!(
                "{}{} {}\n",
                desc.name,
                render_labels(&desc.labels, &[]),
                value
            ));
        }
        for (i, (desc, label_key)) in self.inner.families.iter().enumerate() {
            header(&mut out, &desc.name, &desc.help, "counter");
            for (label_value, count) in self.family_values(FamilyId(i)) {
                out.push_str(&format!(
                    "{}{} {}\n",
                    desc.name,
                    render_labels(&desc.labels, &[(label_key, &label_value)]),
                    count
                ));
            }
        }
        for (i, desc) in self.inner.gauge_descs.iter().enumerate() {
            header(&mut out, &desc.name, &desc.help, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                desc.name,
                render_labels(&desc.labels, &[]),
                self.gauge_value(GaugeId(i))
            ));
        }
        for (i, desc) in self.inner.histograms.iter().enumerate() {
            header(&mut out, &desc.name, &desc.help, "histogram");
            let h = self.histogram(HistogramId(i));
            let top = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for bucket in 0..=top {
                cumulative += h.buckets[bucket];
                let le = bucket_upper_bound(bucket).to_string();
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    desc.name,
                    render_labels(&desc.labels, &[("le", &le)]),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                desc.name,
                render_labels(&desc.labels, &[("le", "+Inf")]),
                h.count()
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                desc.name,
                render_labels(&desc.labels, &[]),
                h.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                desc.name,
                render_labels(&desc.labels, &[]),
                h.count()
            ));
        }
        out
    }
}

/// Renders a label set (`{k="v",...}`; empty string when no labels).
fn render_labels(fixed: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if fixed.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<String> = fixed
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    pairs.extend(
        extra
            .iter()
            .map(|&(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", pairs.join(","))
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A merged log-bucketed histogram: observation counts by bit length,
/// plus the exact sum and maximum.
///
/// [`MetricsRegistry::histogram`] builds one by element-wise addition
/// over the shards, so merge order never matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count per bucket (index = bit length of the value).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Exact sum of all observations (wrapping).
    pub sum: u64,
    /// Exact maximum observation (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_of(v)));
            if bucket_of(v) > 0 {
                assert!(v > bucket_upper_bound(bucket_of(v) - 1));
            }
        }
    }

    #[test]
    fn registry_merges_shards_at_read_time() {
        let mut b = MetricsBuilder::new();
        let hits = b.counter("cache_hits_total", "cache hits", &[]);
        let depth = b.gauge("queue_depth", "queued connections", &[]);
        let lat = b.histogram("latency_ns", "request latency", &[("op", "compile")]);
        let failures = b.counter_family("failures_total", "failures by class", "class");
        let registry = b.build();
        let s1 = registry.shard();
        let s2 = registry.shard();
        s1.incr(hits);
        s1.add(hits, 2);
        s2.incr(hits);
        s1.observe(lat, 100);
        s2.observe(lat, 3000);
        registry.gauge_set(depth, 4);
        registry.gauge_add(depth, -1);
        registry.incr_family(failures, "select/selector-gap");
        registry.incr_family(failures, "select/selector-gap");
        registry.incr_family(failures, "emit/no-spill-path");

        assert_eq!(registry.counter_value(hits), 4);
        assert_eq!(registry.gauge_value(depth), 3);
        let h = registry.histogram(lat);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max, 3000);
        assert_eq!(
            registry.family_values(failures),
            vec![
                ("emit/no-spill-path".to_owned(), 1),
                ("select/selector-gap".to_owned(), 2),
            ]
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut b = MetricsBuilder::new();
        let hits = b.counter("cache_hits_total", "cache hits", &[]);
        let _depth = b.gauge("queue_depth", "queued connections", &[]);
        let lat = b.histogram("latency_ns", "request latency", &[("op", "compile")]);
        let failures = b.counter_family("failures_total", "failures by class", "class");
        let registry = b.build();
        let shard = registry.shard();
        shard.incr(hits);
        shard.observe(lat, 5);
        registry.incr_family(failures, "class\"with\\odd\nchars");
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE cache_hits_total counter"));
        assert!(text.contains("# HELP cache_hits_total cache hits"));
        assert!(text.contains("cache_hits_total 1"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 0"));
        assert!(text.contains("# TYPE latency_ns histogram"));
        assert!(text.contains("latency_ns_bucket{op=\"compile\",le=\"7\"} 1"));
        assert!(text.contains("latency_ns_bucket{op=\"compile\",le=\"+Inf\"} 1"));
        assert!(text.contains("latency_ns_sum{op=\"compile\"} 5"));
        assert!(text.contains("latency_ns_count{op=\"compile\"} 1"));
        assert!(
            text.contains(r#"failures_total{class="class\"with\\odd\nchars"} 1"#),
            "{text}"
        );
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<i64>().is_ok(), "bad sample line: {line}");
        }
    }
}
