//! Machine-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts over minutes: a
//! fixed computation can take 70% longer in one minute than in the next,
//! in on-CPU time as much as in wall time, because the slowdown comes
//! from neighbours on the same physical cores rather than from
//! descheduling.  Medians over windows cannot absorb a drift that covers
//! a whole run.  So every run interleaves a fixed reference computation
//! with its timed work, and each measuring window's times are scaled by
//! how fast the reference ran in that window.  A time the benchmark
//! reports is the time the operation would take on a machine where the
//! reference takes [`NOMINAL_NS`].
//!
//! The reference is code of the benchmark's own, not of the program: a
//! change to the program does not move it, so a faster or slower program
//! reads as such.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference's time on the reference machine (2 shared x86-64 vCPUs)
/// in a quiet period.  Only the unit of the scaled times depends on it.
pub const NOMINAL_NS: f64 = 190_000.0;

/// Timed work between two reference samples.  The reference costs about
/// 2% of a run at this spacing.
pub const INTERVAL: Duration = Duration::from_millis(10);

/// Reference samples taken on each side of a timed set-up.
pub const SETUP_SAMPLES: usize = 8;

/// The reference computation: keyed maps, sorting, string building and
/// small allocations, the kinds of work the compiler's layers do.
/// Returns a checksum so that none of it can be optimised away.
fn reference() -> u64 {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..1_500u32 {
        map.entry(next() % 512).or_default().push(i);
    }
    let mut keys: Vec<u64> = (0..3_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut text = String::new();
    let mut sum = 0u64;
    for (k, v) in &map {
        text.clear();
        let _ = write!(text, "{k:x}:{}", v.len());
        sum = sum.wrapping_add(text.len() as u64 + u64::from(v[0]));
    }
    for pair in keys.windows(2) {
        sum = sum.wrapping_add(pair[1] - pair[0]);
    }
    sum
}

/// Runs the reference once and returns its wall time in nanoseconds.
pub fn sample() -> u64 {
    let t = Instant::now();
    black_box(reference());
    t.elapsed().as_nanos() as u64
}

/// Runs the reference `n` times and returns the times.
pub fn samples(n: usize) -> Vec<u64> {
    (0..n).map(|_| sample()).collect()
}

/// The factor that scales times measured beside `samples` to the
/// reference machine: [`NOMINAL_NS`] over the samples' median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn scale(samples: &[u64]) -> f64 {
    let ns: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    NOMINAL_NS / crate::stats::median(&ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic() {
        assert_eq!(reference(), reference());
    }

    #[test]
    fn a_slow_reference_shrinks_the_scale() {
        let nominal = NOMINAL_NS as u64;
        assert!((scale(&[nominal, nominal, 9 * nominal]) - 1.0).abs() < 1e-12);
        assert!((scale(&[2 * nominal]) - 0.5).abs() < 1e-12);
    }
}
