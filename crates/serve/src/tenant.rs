//! Per-tenant serving telemetry.
//!
//! A fleet serves many tenants (users, MD drivers, relabeling jobs)
//! through the same shards; an SLO is only meaningful per tenant — one
//! tenant's burst must be visible as *that tenant's* tail latency, not
//! smeared into a fleet-wide average. The [`TenantTable`] hands out
//! one [`TenantStats`] per tenant id; the engine resolves the handles
//! before each batch fan-out, so the record path inside the parallel
//! region is purely atomic increments into pre-resolved `Arc`s — no
//! lock, no allocation, same discipline as [`crate::stats::ServeStats`].

use crate::stats::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Atomic per-tenant counters. One instance per tenant id, shared by
/// every shard engine that serves the tenant (the fleet passes one
/// [`TenantTable`] to all shards).
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Requests resolved for this tenant (ok or typed error).
    pub requests: AtomicU64,
    /// Requests that resolved with an `Ok` response.
    pub ok: AtomicU64,
    /// Requests that resolved with a typed error (bad request, shed,
    /// deadline, eval failure, unknown model, closed).
    pub errors: AtomicU64,
    /// Responses flagged degraded (energy-only under pressure).
    pub degraded: AtomicU64,
    /// Submission-to-response latency, nanoseconds (log2 buckets).
    pub latency_ns: Histogram,
}

/// Point-in-time plain-value view of one tenant's counters.
#[derive(Clone, Debug)]
pub struct TenantSnapshot {
    /// Requests resolved.
    pub requests: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// Typed-error resolutions.
    pub errors: u64,
    /// Degraded responses.
    pub degraded: u64,
    /// Latency percentiles in nanoseconds (`None` before any request).
    pub p50_ns: Option<f64>,
    /// 99th percentile latency.
    pub p99_ns: Option<f64>,
    /// 99.9th percentile latency.
    pub p999_ns: Option<f64>,
}

impl TenantStats {
    /// Record one resolved request.
    pub fn record(&self, latency_ns: u64, ok: bool, degraded: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_ns.record(latency_ns);
    }

    /// Point-in-time view.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            p50_ns: self.latency_ns.p50(),
            p99_ns: self.latency_ns.p99(),
            p999_ns: self.latency_ns.p999(),
        }
    }
}

/// Tenant-id → stats map shared by every shard of a fleet. Reads (the
/// per-batch handle resolution) take a read lock on a `BTreeMap`;
/// tenants are created once, on first sight.
#[derive(Debug, Default)]
pub struct TenantTable {
    tenants: RwLock<BTreeMap<u64, Arc<TenantStats>>>,
}

impl TenantTable {
    /// Empty table.
    pub fn new() -> Self {
        TenantTable::default()
    }

    /// The stats handle for `tenant`, created on first sight. The
    /// common case (tenant already known) is a read lock plus an `Arc`
    /// clone.
    pub fn handle(&self, tenant: u64) -> Arc<TenantStats> {
        if let Some(s) = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&tenant)
        {
            return Arc::clone(s);
        }
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(tenant).or_default())
    }

    /// The stats handle for `tenant` if it has ever been seen.
    pub fn get(&self, tenant: u64) -> Option<Arc<TenantStats>> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&tenant)
            .map(Arc::clone)
    }

    /// All known tenant ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .copied()
            .collect()
    }

    /// Snapshots for every known tenant, ascending by id.
    pub fn snapshots(&self) -> Vec<(u64, TenantSnapshot)> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(id, s)| (*id, s.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_tenant() {
        let t = TenantTable::new();
        let a = t.handle(7);
        let b = t.handle(7);
        assert!(Arc::ptr_eq(&a, &b));
        a.record(1_000, true, false);
        assert_eq!(b.snapshot().requests, 1);
        assert!(t.get(8).is_none());
        let _ = t.handle(3);
        assert_eq!(t.ids(), vec![3, 7]);
    }

    #[test]
    fn snapshot_separates_outcomes() {
        let s = TenantStats::default();
        s.record(1_000, true, false);
        s.record(2_000, true, true);
        s.record(50_000, false, false);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.ok, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.degraded, 1);
        assert!(snap.p50_ns.unwrap() > 0.0);
        assert!(snap.p999_ns.unwrap() >= snap.p50_ns.unwrap());
    }
}
