//! What every workload shares: the run options, the outcome of a run,
//! seeded shuffles, whole-pass loops and repeated set-up.

use crate::metrics::Values;
use crate::pace;
use crate::stats::{median, Window, Windows};
use record_fuzz::Rng;
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Set-ups are repeated until they have taken this long in all, so a
/// cheap set-up's median rests on more than [`SETUPS`] samples.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed: an error, or an output that differs
    /// from the checked result.
    pub failed: u64,
    /// Check failures outside the timed operations (set-up oracle,
    /// self-test, `/metrics` cross-checks); any makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values; end-to-end or per-layer, as the run's trace flag
    /// asks.
    pub values: Values,
}

impl Outcome {
    /// Records one timed operation's verdict.
    pub fn tally(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }
}

/// Derives an independent stream for `purpose` from the run seed.
pub fn rng(seed: u64, purpose: u64) -> Rng {
    Rng::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs `setup` at least [`SETUPS`] times and for at least
/// [`SETUP_BUDGET`], and returns the last result with the median wall
/// time in seconds, each set-up scaled to the reference machine by
/// reference samples taken just before and after it.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUPS || start.elapsed() < SETUP_BUDGET {
        // Free the previous set-up before timing the next one.
        drop(last.take());
        let mut refs = pace::samples(pace::SETUP_SAMPLES);
        let t = Instant::now();
        last = Some(setup());
        let secs = t.elapsed().as_secs_f64();
        refs.extend(pace::samples(pace::SETUP_SAMPLES));
        times.push(secs * pace::scale(&refs));
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Latencies of a whole-pass run, split by whether the pass was traced.
#[derive(Debug)]
pub struct Passes {
    pub untraced: Windows,
    pub traced: Windows,
}

/// Shortest measuring window of a library workload: whole passes are
/// added until it is reached.  `retarget-cold` passes take 70 ms, so its
/// windows hold 8 passes and its p99 rests on 5 samples a window rather
/// than on the slowest one of a pass.
pub const LIBRARY_WINDOW: Duration = Duration::from_millis(500);

/// Runs whole passes over `inputs` inputs, each in a fresh seeded order,
/// until `opts.seconds` have elapsed.  Consecutive passes make up a
/// measuring window of at least `window`.  `op(input, traced)` performs
/// and checks one operation and returns its latency in nanoseconds.
/// A reference sample opens each window and follows every
/// [`pace::INTERVAL`] of operations; the window's wall time leaves the
/// samples out.  With tracing on, traced and untraced windows alternate
/// so drift affects both alike; otherwise every window is untraced.
pub fn passes(
    inputs: usize,
    window: Duration,
    opts: &RunOptions,
    rng: &mut Rng,
    outcome: &mut Outcome,
    mut op: impl FnMut(usize, bool) -> Result<u64, String>,
) -> Passes {
    let mut untraced = Windows::new(inputs);
    let mut traced = Windows::new(inputs);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let min_windows = if opts.trace { 2 } else { 1 };
    let mut windows = 0usize;
    while windows < min_windows || start.elapsed() < budget {
        let is_traced = opts.trace && windows % 2 == 1;
        let mut current = Window::default();
        let window_start = Instant::now();
        let mut since_ref = Instant::now();
        current.refs.push(pace::sample());
        loop {
            for input in shuffled(inputs, rng) {
                let result = op(input, is_traced);
                if let Ok(ns) = result {
                    current.samples.push((input, ns));
                }
                outcome.tally(result.map(|_| ()));
                if since_ref.elapsed() >= pace::INTERVAL {
                    current.refs.push(pace::sample());
                    since_ref = Instant::now();
                }
            }
            if window_start.elapsed() >= window {
                break;
            }
        }
        let ref_ns: u64 = current.refs.iter().sum();
        current.wall_ns = (window_start.elapsed().as_nanos() as u64).saturating_sub(ref_ns);
        if is_traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(current);
        windows += 1;
    }
    Passes { untraced, traced }
}

/// Writes the end-to-end throughput and latency metrics.
pub fn write_latency_metrics(latencies: &Windows, values: &mut Values) {
    values.insert("throughput_per_s", latencies.throughput_per_s());
    values.insert("latency_ms.geomean", latencies.geomean_ms());
    values.insert("latency_ms.p50", latencies.quantile_ms(0.50));
    values.insert("latency_ms.p99", latencies.quantile_ms(0.99));
}

/// Writes the tracing overhead (traced minus untraced mean latency, as a
/// percentage of untraced) and the share of the traced operations' time
/// that no layer span covers.
pub fn write_probe_metrics(passes: &Passes, layer_ns: u128, values: &mut Values) {
    let untraced = passes.untraced.mean_ns();
    let traced = passes.traced.mean_ns();
    values.insert(
        "probe.trace-overhead_pct",
        (traced - untraced) / untraced * 100.0,
    );
    let op_ns = passes.traced.total_ns() as f64;
    values.insert(
        "probe.unattributed_pct",
        (op_ns - layer_ns as f64) / op_ns * 100.0,
    );
}

/// Confines this thread, and every thread it starts later, to the first
/// CPU it may run on.  A `serve-mix` request hands off between the client
/// thread and a server worker.  On one CPU that handoff is a context
/// switch whatever else the machine runs; across two cores its cost
/// depended on whether the other core was idle, which moved `serve-mix`
/// latency by 15% between runs.  The library workloads run one thread
/// and lose nothing by it.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // The C library's affinity calls: the benchmark has no bindings crate
    // to take them from.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable and exactly `size` bytes long; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly `size` bytes long; pid 0 is
    // the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Makes every thread of the process allocate from one malloc arena.
/// By default the C library gives a thread that finds the arena busy an
/// arena of its own, so which server worker first allocated beside which
/// other thread decided how many arenas there were, and `serve-mix` peak
/// memory moved by 15% between runs.  With one arena it repeats within 3%
/// and request latency does not change.
pub fn one_malloc_arena() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` in the C library's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two integers and touches no memory of ours;
    // it runs before this process starts a second thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        return Err("mallopt(M_ARENA_MAX, 1) failed".to_owned());
    }
    Ok(())
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(50, &mut rng(3, 1));
        let b = shuffled(50, &mut rng(3, 1));
        let c = shuffled(50, &mut rng(4, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn windows_are_whole_passes_and_failures_are_tallied() {
        let opts = RunOptions {
            seed: 1,
            seconds: 0.0,
            trace: true,
        };
        let mut outcome = Outcome::default();
        let p = passes(
            4,
            Duration::ZERO,
            &opts,
            &mut rng(1, 0),
            &mut outcome,
            |input, _| {
                if input == 3 {
                    Err("wrong".to_owned())
                } else {
                    Ok(1_000)
                }
            },
        );
        // Tracing forces one untraced and one traced window, here of one
        // pass each.
        assert_eq!(outcome.attempted, 8);
        assert_eq!(outcome.failed, 2);
        assert_eq!((p.untraced.len(), p.traced.len()), (3, 3));
    }
}
