//! Order statistics over latency samples.

use std::time::Instant;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted` samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q`-quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile of ascending `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - 1 - r >= MIN_BEYOND).then(|| sorted[r])
}

/// Median of unsorted values (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Length of the windows the timed region is cut into: throughput and
/// medians are taken per window and reported as the median window, so a
/// few seconds of interference from other tenants of the machine move
/// them less.
pub const WINDOW_S: f64 = 1.0;

/// Index of the window that `t` falls in, counting from `start`.
pub fn window_of(start: Instant, t: Instant) -> usize {
    (t.saturating_duration_since(start).as_secs_f64() / WINDOW_S) as usize
}

/// Full windows in a region of `secs` seconds.
pub fn full_windows(secs: f64) -> usize {
    (secs / WINDOW_S) as usize
}

/// Latency samples of one operation class, in microseconds, each
/// tagged with the window it was taken in.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    windows: Vec<usize>,
}

impl Samples {
    /// Records one sample in window 0.
    pub fn push(&mut self, us: f64) {
        self.push_at(0, us);
    }

    /// Records one sample taken in `window`.
    pub fn push_at(&mut self, window: usize, us: f64) {
        self.values.push(us);
        self.windows.push(window);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.windows.extend_from_slice(&other.windows);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Ascending copy of the samples.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Samples taken in each of windows `0..n`.
    pub fn counts(&self, n: usize) -> Vec<usize> {
        let mut c = vec![0; n];
        for &w in &self.windows {
            if w < n {
                c[w] += 1;
            }
        }
        c
    }

    /// Median, or an error naming `what` when there are no samples.
    pub fn p50(&self, what: &str) -> Result<f64, String> {
        let v = self.sorted();
        if v.is_empty() {
            return Err(format!("{what}: no samples"));
        }
        Ok(quantile(&v, 0.5))
    }

    /// The median over windows `0..n` of each window's median.
    pub fn window_p50(&self, n: usize, what: &str) -> Result<f64, String> {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
        for (&v, &w) in self.values.iter().zip(&self.windows) {
            if w < n {
                per[w].push(v);
            }
        }
        if per.iter().any(Vec::is_empty) {
            return Err(format!("{what}: a window has no samples"));
        }
        Ok(median(&per.iter().map(|w| median(w)).collect::<Vec<_>>()))
    }

    /// The `q`-quantile under the [`MIN_BEYOND`] rule, or an error
    /// naming `what` and the sample count when the tail is too thin.
    pub fn tail(&self, q: f64, what: &str) -> Result<f64, String> {
        tail(&self.sorted(), q).ok_or_else(|| {
            format!(
                "{what}: {} samples leave fewer than {MIN_BEYOND} beyond p{}",
                self.len(),
                q * 100.0
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        // One sample fewer leaves nine beyond: no tail.
        assert_eq!(tail(&v[..999], 0.99), None);
        // p95 needs 200 samples.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), Some(190.0));
        assert_eq!(tail(&v[..199], 0.95), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn samples_report_thin_tails_as_errors() {
        let mut s = Samples::default();
        for i in 0..50 {
            s.push(f64::from(i));
        }
        assert_eq!(s.p50("x").unwrap(), 24.0);
        let err = s.tail(0.99, "point").unwrap_err();
        assert!(err.contains("point") && err.contains("50 samples"), "{err}");
    }

    #[test]
    fn window_medians_resist_one_slow_window() {
        let mut s = Samples::default();
        for w in 0..5 {
            for i in 0..11 {
                // Window 2 is ten times slower throughout.
                s.push_at(w, f64::from(i) * if w == 2 { 10.0 } else { 1.0 });
            }
        }
        s.push_at(9, 1e9);
        assert_eq!(s.counts(5), vec![11; 5]);
        assert_eq!(s.window_p50(5, "x").unwrap(), 5.0);
        assert!(s.window_p50(6, "x").is_err());
    }
}
