//! Cross-thread determinism of the log-bucketed latency histogram: what
//! four threads observe into one shared histogram, as a `/metrics`
//! scrape reads it, equals a sequential reference.

use record_probe::metrics::{AtomicHistogram, Histogram, TextWriter};
use std::sync::atomic::{AtomicU64, Ordering};

/// Four threads observe into one histogram and bump one counter; the
/// readout must equal the sequential reference and reproduce run to run,
/// so scrape output may not depend on thread scheduling.
#[test]
fn concurrent_observations_are_deterministic_across_threads() {
    let run = || {
        let hist = AtomicHistogram::new();
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (hist, total) = (&hist, &total);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        hist.observe(t * 1_000 + i);
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let (h, count) = (hist.snapshot(), total.load(Ordering::Relaxed));
        let mut w = TextWriter::new();
        w.family("events_total", "per-thread increments", "counter");
        w.sample("events_total", &[], count);
        w.family("latency_ns", "per-thread observations", "histogram");
        w.histogram("latency_ns", &[], &h);
        (h, count, w.finish())
    };
    let (h1, c1, text1) = run();
    let (h2, c2, text2) = run();
    assert_eq!(c1, 4_000);
    assert_eq!((h2, c2), (h1.clone(), c1), "run-to-run determinism");
    assert_eq!(text1, text2, "byte-identical exposition across runs");

    let mut reference = Histogram::new();
    for t in 0..4u64 {
        for i in 0..1_000 {
            reference.observe(t * 1_000 + i);
        }
    }
    assert_eq!(
        h1, reference,
        "concurrent observations equal the sequential reference"
    );
}
