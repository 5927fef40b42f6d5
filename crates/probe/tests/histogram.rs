//! Cross-thread determinism of the log-bucketed latency histogram: the
//! shard merge a `/metrics` scrape reads equals a sequential reference.

use record_probe::metrics::{Histogram, MetricsBuilder};

/// Four threads hammer their own shards; the merged readout must equal
/// the sequential reference and reproduce run-to-run — scrape output may
/// not depend on thread scheduling or shard layout.
#[test]
fn shard_merge_is_deterministic_across_threads() {
    let run = || {
        let mut b = MetricsBuilder::new();
        let hist = b.histogram("latency_ns", "per-thread observations", &[]);
        let total = b.counter("events_total", "per-thread increments", &[]);
        let registry = b.build();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let shard = registry.shard();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        shard.observe(hist, t * 1_000 + i);
                        shard.incr(total);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("worker thread");
        }
        (
            registry.histogram(hist),
            registry.counter_value(total),
            registry.render_prometheus(),
        )
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
    assert_eq!(h1, reference, "shard merge equals sequential reference");
}
