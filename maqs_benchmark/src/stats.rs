//! Estimators: percentiles of one window, and the summary of per-window
//! values every reported rate, latency and cost is taken from.

/// The `q`-quantile (`0.0..=1.0`) of ascending nanosecond samples, by
/// nearest rank, in microseconds. Empty input yields `0.0`.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percent, value_us)`. With fewer than 20 samples there is no
/// such percentile above the median and the median is returned.
pub fn top_percentile_us(sorted_ns: &[u64]) -> (f64, f64) {
    let n = sorted_ns.len();
    if n < 20 {
        return (50.0, percentile_us(sorted_ns, 0.5));
    }
    let idx = n - 11;
    (100.0 * idx as f64 / (n - 1) as f64, sorted_ns[idx] as f64 / 1_000.0)
}

/// Median of an unsorted set (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Five-number summary of the per-window values of one metric. Which
/// of them a run reports is the metric's `Estimate`; the quartiles are
/// what `compare` uses to decide whether two runs can be told apart at
/// all.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub windows: Vec<f64>,
}

impl Summary {
    /// Summarise per-window values (kept in window order in `windows`).
    pub fn of(windows: &[f64]) -> Summary {
        let mut sorted = windows.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: median(&sorted),
            min: sorted.first().copied().unwrap_or(0.0),
            q1: quantile_linear(&sorted, 0.25),
            q3: quantile_linear(&sorted, 0.75),
            max: sorted.last().copied().unwrap_or(0.0),
            windows: windows.to_vec(),
        }
    }

    /// The linear-interpolated `q`-quantile of the window values.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.windows.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_linear(&sorted, q)
    }
}

/// Linear-interpolated quantile of an ascending slice (quartiles of the
/// handful of window values, where nearest-rank would be too coarse).
fn quantile_linear(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (n - 1) as f64 * q;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_vector() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&ns, 0.0), 1.0);
        assert_eq!(percentile_us(&ns, 0.5), 51.0); // (99 * 0.5).round() = 50 → the 51st
        assert_eq!(percentile_us(&ns, 0.99), 99.0);
        assert_eq!(percentile_us(&ns, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7_500], 0.99), 7.5);
    }

    #[test]
    fn top_percentile_leaves_ten_samples_beyond() {
        let ns: Vec<u64> = (0..10_001).map(|i| i * 1_000).collect();
        let (p, v) = top_percentile_us(&ns);
        assert_eq!(v, 9_990.0);
        assert!((p - 99.9).abs() < 1e-9, "{p}");
        assert_eq!(ns.iter().filter(|&&x| x as f64 / 1000.0 > v).count(), 10);
        assert_eq!(top_percentile_us(&[1_000, 2_000, 3_000]).0, 50.0);
    }

    #[test]
    fn median_of_windows_ignores_one_bad_window() {
        let s = Summary::of(&[100.0, 101.0, 5_000.0, 99.0, 100.5]);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.min, 99.0);
        assert_eq!(s.max, 5_000.0);
        assert_eq!(s.q1, 100.0);
        assert_eq!(s.q3, 101.0);
        assert_eq!(s.windows[2], 5_000.0);
        assert_eq!(s.quantile(0.0), 99.0);
        assert!((s.quantile(0.10) - 99.4).abs() < 1e-9);
    }

    #[test]
    fn median_even_and_empty() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[3.0]);
        assert_eq!((s.median, s.q1, s.q3), (3.0, 3.0, 3.0));
    }
}
