//! Order statistics over the benchmark's own samples.

/// The median of `values` (mean of the middle pair for an even count).
/// Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency samples grouped into consecutive windows, so a tail
/// percentile is taken per window and the run reports the median window:
/// one bad second moves one window, not the run's number.
#[derive(Debug, Default, Clone)]
pub struct Windowed {
    windows: Vec<Vec<u64>>,
}

impl Windowed {
    /// The samples of window `index`, for appending.
    pub fn window(&mut self, index: usize) -> &mut Vec<u64> {
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, Vec::new);
        }
        &mut self.windows[index]
    }

    pub fn record(&mut self, window: usize, sample_ns: u64) {
        self.window(window).push(sample_ns);
    }

    pub fn merge(&mut self, other: Windowed) {
        for (index, samples) in other.windows.into_iter().enumerate() {
            self.window(index).extend(samples);
        }
    }

    pub fn count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// The `q` quantile of each non-empty window, in window order.
    pub fn per_window(&mut self, q: f64) -> Vec<u64> {
        self.windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| {
                w.sort_unstable();
                quantile(w, q)
            })
            .collect()
    }

    /// Median over windows of each window's `q` quantile, in ns.
    pub fn median_of_windows(&mut self, q: f64) -> f64 {
        let mut per_window: Vec<f64> = self.per_window(q).into_iter().map(|v| v as f64).collect();
        median(&mut per_window)
    }

    /// The `q` quantile over every sample of every window, in ns.
    pub fn overall(&self, q: f64) -> u64 {
        let mut all: Vec<u64> = self.windows.iter().flatten().copied().collect();
        all.sort_unstable();
        quantile(&all, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn one_bad_window_does_not_move_the_windowed_p99() {
        let mut samples = Windowed::default();
        for window in 0..5 {
            for i in 0..1_000u64 {
                // Window 2 has a stall: its top 5 % take 1 ms.
                let stalled = window == 2 && i >= 950;
                samples.record(window, if stalled { 1_000_000 } else { 100 + i });
            }
        }
        assert_eq!(samples.count(), 5_000);
        assert_eq!(samples.per_window(0.99)[2], 1_000_000);
        assert_eq!(samples.median_of_windows(0.99), 1_089.0);
        // The stall is 1 % of all samples: it sits exactly at the overall
        // p99 boundary and owns everything beyond it.
        assert_eq!(samples.overall(0.995), 1_000_000);
        assert_eq!(samples.overall(0.5), 599);
    }
}
