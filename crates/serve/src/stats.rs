//! Serving telemetry: queue depth, batch sizes, latency percentiles,
//! swap count, geometry-cache hit rate, and the SLO counters (shed,
//! deadline misses, breaker trips, degraded responses, per-lane
//! depth).
//!
//! Every counter on the request path is an atomic or a fixed-bucket
//! [`Histogram`] — no lock, no allocation — so the stats layer cannot
//! perturb the latencies it measures. Snapshots
//! ([`ServeStats::snapshot`]) are taken off-path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets in a [`Histogram`] — covers the full u64
/// range, so any nanosecond latency or batch size fits.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed-bucket log2 histogram with a lock- and allocation-free record
/// path, built for hot-loop telemetry (per-request latencies, batch
/// sizes). Bucket `b` holds values in `[2^b, 2^(b+1))` (value 0 lands
/// in bucket 0), so relative resolution is a factor of 2 — enough to
/// tell a p99 from a p50 without a single heap allocation or mutex on
/// the serving path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value. Wait-free: one `fetch_add` on the value's
    /// bucket, no allocation.
    pub fn record(&self, value: u64) {
        let b = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the geometric midpoint of
    /// the bucket holding that rank, or `None` when nothing was
    /// recorded. Accurate to the factor-of-2 bucket width.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                // Geometric midpoint of [2^b, 2^(b+1)): 2^(b+0.5).
                return Some(2f64.powi(b as i32) * std::f64::consts::SQRT_2);
            }
        }
        None
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the serving-SLO tail metric (DESIGN §12).
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Largest recorded bucket's upper bound (an upper bound on the
    /// maximum recorded value), or `None` when empty.
    pub fn max_bound(&self) -> Option<f64> {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, c)| c.load(Ordering::Relaxed) > 0)
            .map(|(b, _)| 2f64.powi(b as i32 + 1))
    }

    /// Non-empty `(bucket_lower_bound, count)` pairs, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((1u64 << b, n))
            })
            .collect()
    }
}

/// Atomic counters and histograms updated by the engine.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests completed (with a response or a dispatch-side typed
    /// error; admission-time rejections count under `shed` only).
    pub requests: AtomicU64,
    /// Micro-batches dispatched.
    pub batches: AtomicU64,
    /// Per-request latency from submission to response, nanoseconds
    /// (log2 buckets).
    pub latency_ns: Histogram,
    /// Dispatched batch sizes (log2 buckets).
    pub batch_sizes: Histogram,
    /// Queue depth observed at each dispatch (log2 buckets).
    pub queue_depth: Histogram,
    /// Interactive-lane depth at each dispatch (log2 buckets).
    pub interactive_depth: Histogram,
    /// Bulk-lane depth at each dispatch (log2 buckets).
    pub bulk_depth: Histogram,
    /// Largest queue depth ever observed at a dispatch.
    pub max_depth: AtomicU64,
    /// Overload sheds: submissions rejected at capacity plus queued
    /// bulk requests evicted for interactive arrivals.
    pub shed: AtomicU64,
    /// Requests shed by the dispatcher because their deadline was (or
    /// provably would be) exceeded.
    pub deadline_miss: AtomicU64,
    /// Circuit-breaker trips (transitions into the open state).
    pub breaker_trips: AtomicU64,
    /// Responses served energy-only under degradation although forces
    /// were requested.
    pub degraded: AtomicU64,
    /// Model-eval failures (poisoned requests, non-finite output).
    pub eval_failures: AtomicU64,
    /// Environment-cache hits across all snapshots served.
    pub cache_hits: AtomicU64,
    /// Environment-cache misses across all snapshots served.
    pub cache_misses: AtomicU64,
}

/// A point-in-time, plain-value view of [`ServeStats`].
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Requests completed.
    pub requests: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Latency percentiles in nanoseconds (`None` before any request).
    pub latency_p50_ns: Option<f64>,
    /// 90th percentile latency.
    pub latency_p90_ns: Option<f64>,
    /// 99th percentile latency.
    pub latency_p99_ns: Option<f64>,
    /// 99.9th percentile latency.
    pub latency_p999_ns: Option<f64>,
    /// Model swaps observed by the engine (publishes after the first).
    pub swaps: u64,
    /// Geometry-cache hit rate over everything served, 0 when unused.
    pub cache_hit_rate: f64,
    /// Overload sheds (capacity rejections + bulk evictions).
    pub shed: u64,
    /// Dispatcher-side deadline sheds.
    pub deadline_miss: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Energy-only degraded responses.
    pub degraded: u64,
    /// Model-eval failures.
    pub eval_failures: u64,
    /// Largest queue depth observed at any dispatch.
    pub max_depth: u64,
}

impl ServeStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        ServeStats::default()
    }

    /// Record one dispatched batch of `size` requests drained from a
    /// queue holding `depth` pending requests (`interactive` + `bulk`).
    pub fn record_batch(&self, size: usize, depth: usize, interactive: usize, bulk: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_sizes.record(size as u64);
        self.queue_depth.record(depth as u64);
        self.interactive_depth.record(interactive as u64);
        self.bulk_depth.record(bulk as u64);
        self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Record one completed request with its submission-to-response
    /// latency.
    pub fn record_request(&self, latency_ns: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency_ns.record(latency_ns);
    }

    /// Record one overload shed (capacity rejection or bulk eviction).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one dispatcher-side deadline shed.
    pub fn record_deadline_miss(&self) {
        self.deadline_miss.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one circuit-breaker trip.
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one degraded (energy-only) response.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one model-eval failure.
    pub fn record_eval_failure(&self) {
        self.eval_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one snapshot's cache counters in (called when a snapshot
    /// is retired or at snapshot time with the live counters).
    pub fn record_cache(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Point-in-time view. `swaps` comes from the registry (the engine
    /// passes it through).
    pub fn snapshot(&self, swaps: u64) -> StatsSnapshot {
        let requests = self.requests.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        StatsSnapshot {
            requests,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                requests as f64 / batches as f64
            },
            latency_p50_ns: self.latency_ns.p50(),
            latency_p90_ns: self.latency_ns.p90(),
            latency_p99_ns: self.latency_ns.p99(),
            latency_p999_ns: self.latency_ns.p999(),
            swaps,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            shed: self.shed.load(Ordering::Relaxed),
            deadline_miss: self.deadline_miss.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            eval_failures: self.eval_failures.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_summarizes_counters() {
        let s = ServeStats::new();
        for i in 0..100u64 {
            s.record_request(1_000 + i);
        }
        s.record_request(1_000_000);
        s.record_batch(8, 12, 9, 3);
        s.record_batch(4, 4, 4, 0);
        s.record_cache(30, 10);
        s.record_shed();
        s.record_shed();
        s.record_deadline_miss();
        s.record_breaker_trip();
        s.record_degraded();
        s.record_eval_failure();
        let snap = s.snapshot(3);
        assert_eq!(snap.requests, 101);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch - 50.5).abs() < 1e-12);
        assert!(snap.latency_p50_ns.unwrap() < 4096.0);
        assert!(snap.latency_p99_ns.unwrap() >= snap.latency_p50_ns.unwrap());
        assert!(snap.latency_p999_ns.unwrap() >= snap.latency_p99_ns.unwrap());
        assert_eq!(snap.swaps, 3);
        assert!((snap.cache_hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.deadline_miss, 1);
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.eval_failures, 1);
        assert_eq!(snap.max_depth, 12);
    }

    #[test]
    fn empty_stats_have_no_percentiles() {
        let s = ServeStats::new();
        let snap = s.snapshot(0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.latency_p50_ns, None);
        assert_eq!(snap.latency_p999_ns, None);
        assert_eq!(snap.mean_batch, 0.0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.max_depth, 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        // 0 and 1 share bucket 0; 2 and 3 bucket 1; 1023 bucket 9;
        // 1024 bucket 10.
        let buckets = h.nonzero_buckets();
        assert_eq!(
            buckets,
            vec![(1, 2), (2, 2), (4, 2), (8, 1), (512, 1), (1024, 1)]
        );
    }

    #[test]
    fn histogram_percentiles_are_bucket_accurate() {
        let h = Histogram::new();
        // 90 values around 100 ns, 9 around 10 µs, 1 around 1 ms.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        let p99 = h.p99().unwrap();
        assert!((64.0..256.0).contains(&p50), "p50 {p50}");
        assert!((64.0..256.0).contains(&p90), "p90 {p90}");
        assert!((8192.0..32768.0).contains(&p99), "p99 {p99}");
        let p999 = h.p999().unwrap();
        assert!((524288.0..2097152.0).contains(&p999), "p999 {p999}");
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(h.max_bound().unwrap() >= 1_000_000.0);
    }

    #[test]
    fn histogram_is_safe_under_concurrent_recording() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(i * (t + 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
