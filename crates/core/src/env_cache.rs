//! Geometry-once environment cache.
//!
//! `build_envs` is pure in the frame *geometry* (cell, types,
//! positions): the neighbour list, the smooth environment matrix `R̃`
//! and its row derivatives depend on nothing else. The training loops
//! revisit every frame once per epoch — twice per FEKF iteration — so
//! rebuilding that geometry on every `forward()` is the dominant
//! weight-independent cost of the hot loop (the same observation that
//! drives DeePMD-kit's precomputed environment matrices).
//!
//! [`EnvCache`] stores one [`FrameEnv`] per dataset frame behind an
//! `Arc`, keyed by a hash of the geometry bits. Lookups validate the
//! hash, so mutated frames (the online loop appends and jitters
//! frames; `active.rs` streams fresh MD configurations) transparently
//! invalidate themselves: a changed position produces a different
//! hash, the stale entry is rebuilt, and the new entry replaces it.
//! Out-of-range indices (streamed data beyond the initial dataset)
//! fall back to an uncached build. Because cached and fresh builds
//! run the identical `build_envs`, a cache hit is *bitwise* equivalent
//! to a rebuild — the cache can never perturb a trajectory.

use crate::config::ModelConfig;
use crate::env::{build_envs, EnvStats, Envs};
use dp_data::dataset::Snapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The cached output of [`build_envs`] for one frame, stamped with the
/// geometry hash it was built from.
#[derive(Clone, Debug)]
pub struct FrameEnv {
    /// The typed environments (entries, type offsets, row derivatives)
    /// — everything the forward/backward sweeps read.
    pub envs: Envs,
    /// [`geometry_hash`] of the frame at build time.
    pub geom_hash: u64,
}

impl FrameEnv {
    /// Run `build_envs` and stamp the result.
    pub fn build(cfg: &ModelConfig, stats: &EnvStats, frame: &Snapshot) -> Self {
        FrameEnv {
            envs: build_envs(cfg, stats, frame),
            geom_hash: geometry_hash(frame),
        }
    }

    /// Resident bytes of this entry (entries dominate: one `EnvEntry`
    /// is 1 usize + 16 f64 = 136 bytes per neighbour).
    pub fn mem_bytes(&self) -> usize {
        self.envs.mem_bytes()
    }
}

/// FNV-1a over the bit patterns of everything `build_envs` reads:
/// cell lengths, type ids, positions. Energy/force labels and names
/// are deliberately excluded — they never enter the geometry.
pub fn geometry_hash(frame: &Snapshot) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    #[inline]
    fn eat(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }
    let mut h = FNV_OFFSET;
    for &c in &frame.cell {
        h = eat(h, c.to_bits());
    }
    h = eat(h, frame.types.len() as u64);
    for &t in &frame.types {
        h = eat(h, t as u64);
    }
    for p in &frame.pos {
        for &x in &p.0 {
            h = eat(h, x.to_bits());
        }
    }
    h
}

/// Hit/miss counters of an [`EnvCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a valid cached entry.
    pub hits: u64,
    /// Lookups that (re)built the geometry.
    pub misses: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when the cache was never touched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Persistent per-dataset environment cache.
///
/// One slot per frame index; concurrent lookups are safe (`RwLock`
/// per slot) and a hit is a cheap `Arc` clone. A disabled cache
/// counts every lookup as a miss and always rebuilds — useful for
/// A/B runs (`DP_ENV_CACHE=0`) and the bitwise-equivalence tests.
#[derive(Debug)]
pub struct EnvCache {
    slots: Vec<RwLock<Option<Arc<FrameEnv>>>>,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EnvCache {
    /// An enabled cache with `n_frames` slots.
    pub fn new(n_frames: usize) -> Self {
        EnvCache {
            slots: (0..n_frames).map(|_| RwLock::new(None)).collect(),
            enabled: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that never stores anything (the uncached A/B arm).
    pub fn disabled() -> Self {
        EnvCache {
            slots: Vec::new(),
            enabled: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether lookups may be served from the cache.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of frame slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Fetch the environment of frame `idx`, rebuilding when the slot
    /// is empty, stale (geometry hash mismatch), out of range, or the
    /// cache is disabled. Always returns an env whose `geom_hash`
    /// matches the frame as passed.
    pub fn get_or_build(
        &self,
        cfg: &ModelConfig,
        stats: &EnvStats,
        idx: usize,
        frame: &Snapshot,
    ) -> Arc<FrameEnv> {
        if !self.enabled || idx >= self.slots.len() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(FrameEnv::build(cfg, stats, frame));
        }
        self.fetch_slot(cfg, stats, idx, geometry_hash(frame), frame)
    }

    /// Direct-mapped lookup for streaming workloads with no stable
    /// frame indexing (an inference server receives arbitrary
    /// geometries): the slot is the geometry hash modulo the capacity.
    /// A colliding geometry simply evicts the slot and rebuilds — the
    /// hash check makes any replacement policy correct, this one just
    /// has no bookkeeping. Repeated geometries (an MD driver resending
    /// a frame, retries after a hot-swap) hit their previous build.
    pub fn get_or_build_keyed(
        &self,
        cfg: &ModelConfig,
        stats: &EnvStats,
        frame: &Snapshot,
    ) -> Arc<FrameEnv> {
        if !self.enabled || self.slots.is_empty() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(FrameEnv::build(cfg, stats, frame));
        }
        let hash = geometry_hash(frame);
        let idx = (hash % self.slots.len() as u64) as usize;
        self.fetch_slot(cfg, stats, idx, hash, frame)
    }

    /// Shared slot path: serve on hash match, else rebuild and replace.
    fn fetch_slot(
        &self,
        cfg: &ModelConfig,
        stats: &EnvStats,
        idx: usize,
        hash: u64,
        frame: &Snapshot,
    ) -> Arc<FrameEnv> {
        if let Some(env) = self.slots[idx]
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            if env.geom_hash == hash {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(env);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let env = Arc::new(FrameEnv {
            envs: build_envs(cfg, stats, frame),
            geom_hash: hash,
        });
        *self.slots[idx].write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&env));
        env
    }

    /// Drop the cached entry of one frame (e.g. before mutating it in
    /// place — the hash check would catch it anyway, this just frees
    /// the memory eagerly).
    pub fn invalidate(&self, idx: usize) {
        if let Some(slot) = self.slots.get(idx) {
            *slot.write().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    /// Drop every cached entry (counters are kept).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.write().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Approximate resident bytes of all cached entries.
    pub fn mem_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                    .map_or(0, |env| env.mem_bytes())
            })
            .sum()
    }
}

/// `DP_ENV_CACHE` environment switch: enabled unless set to one of
/// `0`, `false`, `off`, `no` (case-insensitive). Drives the default of
/// `TrainConfig::env_cache` so `scripts/ci.sh` can A/B the cache
/// without code changes.
pub fn env_cache_enabled_from_env() -> bool {
    match std::env::var("DP_ENV_CACHE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mdsim::Vec3;

    fn frame() -> Snapshot {
        Snapshot {
            cell: [12.0, 12.0, 12.0],
            types: vec![0, 0, 0, 0],
            type_names: vec!["A".into()],
            pos: vec![
                Vec3::new(1.0, 1.0, 1.0),
                Vec3::new(2.5, 1.0, 1.0),
                Vec3::new(1.0, 2.8, 1.2),
                Vec3::new(2.2, 2.2, 2.4),
            ],
            energy: 0.0,
            forces: vec![Vec3::ZERO; 4],
            temperature: 300.0,
        }
    }

    fn cfg() -> ModelConfig {
        let mut cfg = ModelConfig::small(1, 4.0);
        cfg.rcut_smooth = 2.0;
        cfg
    }

    #[test]
    fn hash_ignores_labels_but_sees_geometry() {
        let f = frame();
        let h0 = geometry_hash(&f);
        let mut labels = f.clone();
        labels.energy = 99.0;
        labels.forces[0] = Vec3::new(1.0, 2.0, 3.0);
        labels.temperature = 1.0;
        assert_eq!(h0, geometry_hash(&labels), "labels must not affect the hash");
        let mut moved = f.clone();
        moved.pos[2].0[1] += 1e-12;
        assert_ne!(h0, geometry_hash(&moved), "any position bit must change the hash");
        let mut cell = f.clone();
        cell.cell[0] = 12.5;
        assert_ne!(h0, geometry_hash(&cell));
        let mut types = f;
        types.types[1] = 1;
        assert_ne!(h0, geometry_hash(&types));
    }

    #[test]
    fn second_lookup_hits_and_reuses_the_entry() {
        let cache = EnvCache::new(2);
        let (c, s, f) = (cfg(), EnvStats::identity(1), frame());
        let a = cache.get_or_build(&c, &s, 0, &f);
        let b = cache.get_or_build(&c, &s, 0, &f);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same entry");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert!(cache.mem_bytes() > 0);
    }

    #[test]
    fn mutated_frame_invalidates_itself() {
        let cache = EnvCache::new(1);
        let (c, s) = (cfg(), EnvStats::identity(1));
        let f0 = frame();
        let a = cache.get_or_build(&c, &s, 0, &f0);
        let mut f1 = f0.clone();
        f1.pos[0].0[0] += 0.3;
        let b = cache.get_or_build(&c, &s, 0, &f1);
        assert!(!Arc::ptr_eq(&a, &b), "stale entry must be rebuilt");
        assert_eq!(b.geom_hash, geometry_hash(&f1));
        // Entry values match a fresh build exactly.
        let fresh = FrameEnv::build(&c, &s, &f1);
        assert_eq!(b.envs.n_atoms(), fresh.envs.n_atoms());
        for i in 0..f1.types.len() {
            assert_eq!(b.envs.range(i, 0), fresh.envs.range(i, 0));
        }
        for (ex, ey) in b.envs.entries().iter().zip(fresh.envs.entries()) {
            assert_eq!(ex.j, ey.j);
            assert_eq!(ex.row.map(f64::to_bits), ey.row.map(f64::to_bits));
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn out_of_range_and_disabled_fall_back_to_building() {
        let (c, s, f) = (cfg(), EnvStats::identity(1), frame());
        let cache = EnvCache::new(1);
        let _ = cache.get_or_build(&c, &s, 7, &f);
        let _ = cache.get_or_build(&c, &s, 7, &f);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        let off = EnvCache::disabled();
        assert!(!off.is_enabled());
        let _ = off.get_or_build(&c, &s, 0, &f);
        let _ = off.get_or_build(&c, &s, 0, &f);
        assert_eq!(off.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn keyed_lookup_hits_on_repeat_and_rebuilds_on_collision() {
        let (c, s, f) = (cfg(), EnvStats::identity(1), frame());
        let cache = EnvCache::new(4);
        let a = cache.get_or_build_keyed(&c, &s, &f);
        let b = cache.get_or_build_keyed(&c, &s, &f);
        assert!(Arc::ptr_eq(&a, &b), "repeat geometry must hit");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A different geometry mapping to any slot must never be served
        // the stale entry — the hash check guards every slot.
        let mut g = f.clone();
        g.pos[0].0[2] += 0.7;
        let d = cache.get_or_build_keyed(&c, &s, &g);
        assert_eq!(d.geom_hash, geometry_hash(&g));
        assert!(!Arc::ptr_eq(&a, &d));
        // Keyed lookups on a disabled or empty cache always rebuild.
        let off = EnvCache::disabled();
        let _ = off.get_or_build_keyed(&c, &s, &f);
        let _ = off.get_or_build_keyed(&c, &s, &f);
        assert_eq!(off.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn invalidate_and_clear_drop_entries() {
        let cache = EnvCache::new(2);
        let (c, s, f) = (cfg(), EnvStats::identity(1), frame());
        let _ = cache.get_or_build(&c, &s, 0, &f);
        cache.invalidate(0);
        let _ = cache.get_or_build(&c, &s, 0, &f);
        assert_eq!(cache.stats().misses, 2);
        cache.clear();
        assert_eq!(cache.mem_bytes(), 0);
    }
}
