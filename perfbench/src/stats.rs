//! Exact statistics over raw samples.
//!
//! Every percentile, median and geometric mean the benchmark prints is
//! computed here from the full sample vector, never from histogram
//! buckets.

use crate::pace;

/// The `q`-quantile (`0.0..=1.0`) of `samples`, interpolating linearly
/// between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The geometric mean of positive `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One measuring window: the latencies completed in it, tagged with
/// their input, the window's wall time without the reference samples,
/// and the reference samples taken in it (see [`crate::pace`]).
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<(usize, u64)>,
    pub wall_ns: u64,
    pub refs: Vec<u64>,
}

impl Window {
    /// The window's latencies, scaled to the reference machine by
    /// `scale`.
    fn latencies_ms(&self, scale: f64) -> Vec<f64> {
        self.samples
            .iter()
            .map(|&(_, ns)| ns as f64 / 1e6 * scale)
            .collect()
    }

    /// Geometric mean over the window's inputs below `inputs` of each
    /// input's median, unscaled.
    fn geomean_ms(&self, inputs: usize) -> f64 {
        let mut per_input = vec![Vec::new(); inputs];
        for &(input, ns) in &self.samples {
            if let Some(s) = per_input.get_mut(input) {
                s.push(ns as f64 / 1e6);
            }
        }
        let medians: Vec<f64> = per_input
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        geomean(&medians)
    }
}

/// Latencies of a run, kept per measuring window.
///
/// Inputs are numbered `0..inputs`; samples tagged with a higher number
/// count towards throughput and percentiles but not towards the
/// per-input figures.
///
/// The machine is shared, and contention arrives in bursts of a second
/// or so that slow everything by up to half.  So every figure is taken
/// per window and the run reports the median over windows: a burst that
/// covers fewer than half the windows does not move it.  Each window's
/// times are scaled by its own reference samples, or by the run's when it
/// has none, so slower minutes do not move it either.
#[derive(Debug)]
pub struct Windows {
    inputs: usize,
    windows: Vec<Window>,
}

impl Windows {
    /// No windows yet, for `inputs` distinct inputs.
    pub fn new(inputs: usize) -> Windows {
        Windows {
            inputs,
            windows: Vec::new(),
        }
    }

    /// Adds a window (empty windows are dropped).
    pub fn push(&mut self, window: Window) {
        if !window.samples.is_empty() {
            self.windows.push(window);
        }
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.windows.iter().map(|w| w.samples.len()).sum()
    }

    /// Sum of every sample, in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.samples().map(|(_, ns)| u128::from(ns)).sum()
    }

    /// Mean sample, in nanoseconds (0 for none).
    pub fn mean_ns(&self) -> f64 {
        match self.len() {
            0 => 0.0,
            n => self.total_ns() as f64 / n as f64,
        }
    }

    fn samples(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.windows.iter().flat_map(|w| w.samples.iter().copied())
    }

    /// Each sampled input's median over the whole run, in milliseconds.
    pub fn input_medians_ms(&self) -> Vec<(usize, f64)> {
        let mut per_input = vec![Vec::new(); self.inputs];
        for (input, ns) in self.samples() {
            if let Some(s) = per_input.get_mut(input) {
                s.push(ns as f64 / 1e6);
            }
        }
        per_input
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (i, median(s)))
            .collect()
    }

    /// The median over windows of `f(window, scale)`, where `scale` is
    /// the window's factor to the reference machine.
    fn median_over_windows(&self, f: impl Fn(&Window, f64) -> f64) -> f64 {
        let all: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| w.refs.iter().copied())
            .collect();
        let run_scale = if all.is_empty() {
            1.0
        } else {
            pace::scale(&all)
        };
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| {
                let scale = if w.refs.is_empty() {
                    run_scale
                } else {
                    pace::scale(&w.refs)
                };
                f(w, scale)
            })
            .collect();
        median(&per_window)
    }

    /// Operations completed per second on the reference machine.
    pub fn throughput_per_s(&self) -> f64 {
        self.median_over_windows(|w, scale| {
            w.samples.len() as f64 / (w.wall_ns.max(1) as f64 / 1e9 * scale)
        })
    }

    /// Geometric mean over inputs of each input's median latency, in
    /// milliseconds on the reference machine.
    pub fn geomean_ms(&self) -> f64 {
        self.median_over_windows(|w, scale| w.geomean_ms(self.inputs) * scale)
    }

    /// Exact `q`-quantile of the latencies, in milliseconds on the
    /// reference machine.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.median_over_windows(|w, scale| quantile(&w.latencies_ms(scale), q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0; 7]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn windows_report_the_median_over_windows() {
        let window = |samples: &[(usize, u64)], wall_ns| Window {
            samples: samples.to_vec(),
            wall_ns,
            refs: Vec::new(),
        };
        let mut w = Windows::new(3);
        w.push(window(&[(0, 1_000_000), (1, 4_000_000)], 5_000_000));
        w.push(window(
            &[(0, 2_000_000), (1, 8_000_000), (5, 5_000_000)],
            10_000_000,
        ));
        // A window slowed by contention does not move the medians.
        w.push(window(&[(0, 9_000_000), (1, 90_000_000)], 99_000_000));
        w.push(window(&[], 1));
        // Input 5 is beyond the per-input range: it counts only in the
        // percentiles and the throughput.
        assert_eq!(w.len(), 7);
        assert!((w.geomean_ms() - 4.0).abs() < 1e-12);
        assert!((w.quantile_ms(0.5) - 5.0).abs() < 1e-12);
        assert!((w.throughput_per_s() - 300.0).abs() < 1e-9);
        assert_eq!(w.input_medians_ms(), vec![(0, 2.0), (1, 8.0)]);
    }

    #[test]
    fn windows_scale_to_the_reference_machine() {
        let nominal = pace::NOMINAL_NS as u64;
        let mut w = Windows::new(1);
        // The reference ran at half speed in this window: its times halve
        // and its throughput doubles.
        w.push(Window {
            samples: vec![(0, 2_000_000), (0, 2_000_000)],
            wall_ns: 4_000_000,
            refs: vec![2 * nominal],
        });
        assert!((w.geomean_ms() - 1.0).abs() < 1e-12);
        assert!((w.quantile_ms(0.99) - 1.0).abs() < 1e-12);
        assert!((w.throughput_per_s() - 1_000.0).abs() < 1e-9);
    }
}
