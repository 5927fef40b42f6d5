//! Fleet metrics: a log-bucketed latency histogram, an atomic form of it
//! that many threads observe into at once, and a writer for the
//! Prometheus text exposition format.
//!
//! Histograms use power-of-two buckets: bucket *i* counts values whose
//! bit length is *i* (bucket 0 is exactly zero), so observing is a
//! `leading_zeros` and three relaxed atomic ops, and histograms merge by
//! vector addition.
//!
//! A serving layer keeps its counters as plain atomics next to its
//! [`AtomicHistogram`]s, updates them in place from every thread, and
//! renders them with a [`TextWriter`] when scraped.

use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A log-bucketed histogram that any number of threads observe into
/// through a shared reference.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.  Wait-free: a `leading_zeros`, two
    /// `fetch_add`s and a `fetch_max`.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The observations so far.  Each field is read once: a snapshot
    /// taken while other threads observe may hold an observation in its
    /// bucket but not yet in its sum.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A log-bucketed histogram: observation counts by bit length, plus the
/// exact sum and maximum.  [`AtomicHistogram::snapshot`] reads one.
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

/// Writes the Prometheus text exposition format (version 0.0.4): each
/// family opens with its `# HELP` and `# TYPE` lines, then its samples.
#[derive(Debug, Default)]
pub struct TextWriter {
    out: String,
}

impl TextWriter {
    /// An empty exposition.
    pub fn new() -> TextWriter {
        TextWriter::default()
    }

    /// Opens a family: `kind` is `counter`, `gauge` or `histogram`.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        let _ = write!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }

    /// One sample, `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        self.line(name, "", labels, None, value);
    }

    /// One histogram series: cumulative `_bucket` samples up to the
    /// highest non-empty bucket, each bounded by `le` = the bucket's
    /// upper bound, then `le="+Inf"`, `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let top = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (bucket, count) in h.buckets[..=top].iter().enumerate() {
            cumulative += count;
            let le = bucket_upper_bound(bucket).to_string();
            self.line(name, "_bucket", labels, Some(&le), cumulative);
        }
        self.line(name, "_bucket", labels, Some("+Inf"), h.count());
        self.line(name, "_sum", labels, None, h.sum);
        self.line(name, "_count", labels, None, h.count());
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        self.out
    }

    fn line(
        &mut self,
        name: &str,
        suffix: &str,
        labels: &[(&str, &str)],
        le: Option<&str>,
        value: impl Display,
    ) {
        let out = &mut self.out;
        out.push_str(name);
        out.push_str(suffix);
        let pairs = labels.iter().copied().chain(le.map(|le| ("le", le)));
        for (i, (k, v)) in pairs.enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        if !labels.is_empty() || le.is_some() {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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
    fn snapshot_reads_what_every_thread_observed() {
        let hist = AtomicHistogram::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                hist.observe(100);
                hist.observe(0);
            });
            s.spawn(|| hist.observe(3000));
        });
        let h = hist.snapshot();
        assert_eq!(h.count(), 3);
        assert_eq!((h.sum, h.max), (3100, 3000));
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[bucket_of(100)], 1);
        assert_eq!(h.buckets[bucket_of(3000)], 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut lat = Histogram::new();
        lat.observe(5);
        let mut w = TextWriter::new();
        w.family("cache_hits_total", "cache hits", "counter");
        w.sample("cache_hits_total", &[], 1);
        w.family("failures_total", "failures by class", "counter");
        w.sample("failures_total", &[("class", "class\"with\\odd\nchars")], 1);
        w.family("queue_depth", "queued connections", "gauge");
        w.sample("queue_depth", &[], 0);
        w.family("latency_ns", "request latency", "histogram");
        w.histogram("latency_ns", &[("op", "compile")], &lat);
        let text = w.finish();
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
