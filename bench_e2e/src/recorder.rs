//! Exact-sample latency recorder: every sample is kept in a
//! pre-allocated vector, so a percentile is a sample, not a bucket
//! midpoint.
//!
//! The reference box is a small VM that now and then stops for tens of
//! milliseconds. One such stall inside a three-second phase lands on
//! several per cent of the requests, more than the 1 % a p99 tolerates,
//! and moves a mean or a rate by as much. So the summary statistics
//! here are medians over consecutive windows of the run: a stall spoils
//! the windows it touches and the median ignores them, while a real
//! regression moves every window.

/// One operation: when it completed (ns after the run's epoch) and how
/// long it took (ns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub at_ns: u64,
    pub ns: u64,
}

pub struct Recorder {
    samples: Vec<Sample>,
}

/// What a [`Recorder`] reports. Each statistic is taken per window of
/// consecutive samples and the median over the windows is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub count: usize,
    /// How many windows the samples were split into.
    pub windows: usize,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// Tail latency, ns: the 99th percentile of a window, or when a
    /// window has fewer than 1000 samples the highest percentile that
    /// still has at least ten samples beyond it.
    pub tail_ns: u64,
    /// Which percentile `tail_ns` is (0.99 or lower).
    pub tail_percentile: f64,
    /// Mean latency, ns.
    pub mean_ns: f64,
}

impl Summary {
    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6
    }

    pub fn tail_ms(&self) -> f64 {
        self.tail_ns as f64 / 1e6
    }
}

/// Samples that must lie beyond the reported tail percentile.
const BEYOND: usize = 10;
/// A window holds at least this many samples (so its tail is at least
/// the 95th percentile) and a run is split into at most this many.
const MIN_PER_WINDOW: usize = 200;
const MAX_WINDOWS: usize = 10;

/// Index into `n` sorted samples of the tail percentile and the
/// percentile it stands for. Never below the median's index.
pub fn tail_index(n: usize) -> (usize, f64) {
    assert!(n > 0, "no samples");
    let p99 = (n * 99).div_ceil(100) - 1;
    let supported = n.saturating_sub(BEYOND + 1);
    let idx = p99.min(supported).max((n - 1) / 2);
    (idx, (idx + 1) as f64 / n as f64)
}

/// How many windows `n` samples are split into.
pub fn window_count(n: usize) -> usize {
    (n / MIN_PER_WINDOW).clamp(1, MAX_WINDOWS)
}

impl Recorder {
    /// Room for `capacity` samples without reallocating while timing.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            samples: Vec::with_capacity(capacity),
        }
    }

    pub fn record(&mut self, at_ns: u64, ns: u64) {
        self.samples.push(Sample { at_ns, ns });
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Order by completion time, split into windows, summarise each,
    /// report the medians. `None` without samples.
    pub fn summary(&mut self) -> Option<Summary> {
        if self.samples.is_empty() {
            return None;
        }
        self.samples.sort_unstable_by_key(|s| s.at_ns);
        let n = self.samples.len();
        let windows = window_count(n);
        let (mut p50s, mut tails, mut means) = (Vec::new(), Vec::new(), Vec::new());
        let mut tail_percentile = 1.0f64;
        for w in 0..windows {
            let mut lat: Vec<u64> = self.samples[w * n / windows..(w + 1) * n / windows]
                .iter()
                .map(|s| s.ns)
                .collect();
            lat.sort_unstable();
            let (tail, pct) = tail_index(lat.len());
            p50s.push(lat[(lat.len() - 1) / 2] as f64);
            tails.push(lat[tail] as f64);
            means.push(lat.iter().map(|&v| v as f64).sum::<f64>() / lat.len() as f64);
            tail_percentile = tail_percentile.min(pct);
        }
        Some(Summary {
            count: n,
            windows,
            p50_ns: median(&p50s) as u64,
            tail_ns: median(&tails) as u64,
            tail_percentile,
            mean_ns: median(&means),
        })
    }

    /// Completions per second between `from_ns` and `to_ns` of the
    /// samples `keep` accepts: the span is cut into equal bins (as many
    /// as [`window_count`] allows) and the median bin's rate reported.
    pub fn rate_per_s(&self, from_ns: u64, to_ns: u64, keep: impl Fn(&Sample) -> bool) -> f64 {
        assert!(to_ns > from_ns, "empty span");
        let kept: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.at_ns >= from_ns && s.at_ns < to_ns && keep(s))
            .map(|s| s.at_ns)
            .collect();
        let bins = window_count(kept.len());
        let width = (to_ns - from_ns) as f64 / bins as f64;
        let mut counts = vec![0.0f64; bins];
        for at in kept {
            let bin = (((at - from_ns) as f64 / width) as usize).min(bins - 1);
            counts[bin] += 1.0;
        }
        median(&counts) / (width / 1e9)
    }
}

/// Median of a small set of measurements. Panics on an empty set.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2000 samples: p99 is sample 1980 (index 1979), 20 beyond.
        assert_eq!(tail_index(2000), (1979, 0.99));
        // 1000 samples: p99 leaves exactly 10 beyond -> allowed.
        assert_eq!(tail_index(1000), (989, 0.99));
        // 400 samples: p99 leaves only 4 beyond; fall back to the
        // sample with ten beyond it, the 97.5th percentile.
        let (idx, p) = tail_index(400);
        assert_eq!(idx, 389);
        assert!((p - 0.975).abs() < 1e-12);
        assert_eq!(400 - 1 - idx, 10);
        // Too few samples for any tail: report the median.
        assert_eq!(tail_index(15).0, 7);
        assert_eq!(tail_index(1), (0, 1.0));
    }

    #[test]
    fn one_window_summary_picks_exact_samples() {
        let mut r = Recorder::with_capacity(100);
        for v in (1..=100u64).rev() {
            r.record(100 - v, v * 1000);
        }
        let s = r.summary().unwrap();
        assert_eq!((s.count, s.windows), (100, 1));
        assert_eq!(s.p50_ns, 50_000);
        // 100 samples: index 100-11 = 89 -> the 90th sample.
        assert_eq!(s.tail_ns, 90_000);
        assert!((s.tail_percentile - 0.90).abs() < 1e-12);
        assert!((s.mean_ns - 50_500.0).abs() < 1e-9);
        assert!(Recorder::with_capacity(0).summary().is_none());
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_summary() {
        // 1000 operations of 1 ms, one per ms; operations 400..440 sat
        // through a 40 ms stall.
        let mut r = Recorder::with_capacity(1000);
        for i in 0..1000u64 {
            let stalled = (400..440).contains(&i);
            r.record(i * 1_000_000, if stalled { 40_000_000 } else { 1_000_000 });
        }
        let s = r.summary().unwrap();
        assert_eq!(s.windows, 5);
        assert_eq!(s.p50_ns, 1_000_000);
        assert_eq!(
            s.tail_ns, 1_000_000,
            "4 % of all samples stalled, yet the windowed tail holds"
        );
        assert_eq!(s.mean_ns, 1_000_000.0);
        // 1000 completions per second, with or without the hole the
        // stall tears into one bin.
        let mut holed = Recorder::with_capacity(1000);
        for i in (0..1000u64).filter(|i| !(400..440).contains(i)) {
            holed.record(i * 1_000_000, 1_000_000);
        }
        assert_eq!(holed.rate_per_s(0, 1_000_000_000, |_| true), 1000.0);
        // The same through the filter: only in-limit completions count.
        assert_eq!(
            r.rate_per_s(0, 1_000_000_000, |s| s.ns <= 1_000_000),
            1000.0
        );
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
