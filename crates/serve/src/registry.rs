//! Hot-swappable model snapshots.
//!
//! The online-learning loop produces a new model every few minutes; MD
//! clients query energies and forces continuously. The registry
//! decouples the two: [`ModelRegistry::publish`] installs a validated
//! snapshot with one atomic pointer store, and readers pick up the
//! current snapshot with [`ModelRegistry::current`] — two atomic
//! operations, no lock, no wait. In-flight requests keep the `Arc` of
//! the snapshot they started on and finish there; a swap is only ever
//! observed *between* requests, never inside one.
//!
//! ## Why the read path needs no lock
//!
//! `current` loads a raw pointer published by the last `publish` and
//! revives it into an `Arc` via `Arc::increment_strong_count`. That is
//! sound only if the pointee cannot be freed between the load and the
//! increment — the classic arc-swap race. The registry closes it by
//! *retaining* every published snapshot in an internal history list
//! (strong count ≥ 1 for the registry's lifetime), so the loaded
//! pointer is always alive and the increment is always on a live
//! count. The cost is one retained model per publish; an online loop
//! publishes once per retrain (seconds to minutes apart), so the
//! history stays small. [`ModelRegistry::prune`] reclaims old
//! snapshots when the caller can prove exclusivity (`&mut self`).

use crate::batch::ServeError;
use deepmd_core::compress::CompressedModel;
use deepmd_core::env_cache::EnvCache;
use deepmd_core::model::DeepPotModel;
use deepmd_core::model_io;
use deepmd_core::quant::QuantizedModel;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// An immutable published model snapshot: the weights, a monotonically
/// increasing version tag, and the snapshot's own environment cache
/// (geometries are keyed by hash, so the cache is valid exactly as
/// long as the model's normalization statistics — i.e. per snapshot).
///
/// Besides the f64 master, a snapshot can carry two reduced-fidelity
/// serving artifacts built from the *same* weights (so all tiers agree
/// on chemistry and statistics, and may share the geometry cache):
/// a spline-compressed model and a quantized energy-only model. The
/// engine routes per-request between them (`Fidelity`); publishes
/// without artifacts serve everything from the master.
#[derive(Debug)]
pub struct PublishedModel {
    /// 1-based publish sequence number ("which snapshot computed this
    /// response" — the hot-swap tests key on it).
    pub version: u64,
    /// The trained model.
    pub model: DeepPotModel,
    /// Direct-mapped geometry cache shared by all requests served from
    /// this snapshot.
    pub cache: EnvCache,
    /// Spline-compressed serving tier, if published.
    pub compressed: Option<CompressedModel>,
    /// Quantized energy-only serving tier, if published.
    pub quantized: Option<QuantizedModel>,
}

/// Registry of published snapshots with atomic hot-swap.
pub struct ModelRegistry {
    /// Raw pointer into the `Arc` most recently published. Always
    /// valid: `history` retains a strong reference to every snapshot.
    current: AtomicPtr<PublishedModel>,
    /// Every snapshot ever published (keeps `current`'s pointee — and
    /// any pointer a reader may have just loaded — alive).
    history: Mutex<Vec<Arc<PublishedModel>>>,
    /// Publish sequence counter.
    version: AtomicU64,
    /// Env-cache slots given to each new snapshot.
    cache_slots: usize,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("version", &self.version.load(Ordering::Relaxed))
            .field("cache_slots", &self.cache_slots)
            .finish()
    }
}

fn err(m: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m)
}

impl ModelRegistry {
    /// Default env-cache slots per snapshot: enough for an MD driver's
    /// working set of recent geometries.
    pub const DEFAULT_CACHE_SLOTS: usize = 256;

    /// Create a registry serving `initial` as version 1.
    pub fn new(initial: DeepPotModel) -> Self {
        Self::with_cache_slots(initial, Self::DEFAULT_CACHE_SLOTS)
    }

    /// Create a registry with an explicit per-snapshot cache capacity
    /// (0 rebuilds every geometry: no caching).
    pub fn with_cache_slots(initial: DeepPotModel, cache_slots: usize) -> Self {
        let snapshot = Arc::new(PublishedModel {
            version: 1,
            model: initial,
            cache: EnvCache::new(cache_slots),
            compressed: None,
            quantized: None,
        });
        let ptr = Arc::as_ptr(&snapshot) as *mut PublishedModel;
        ModelRegistry {
            current: AtomicPtr::new(ptr),
            history: Mutex::new(vec![snapshot]),
            version: AtomicU64::new(1),
            cache_slots,
        }
    }

    /// The snapshot new requests should be computed against. Lock-free
    /// and wait-free: an atomic pointer load plus an atomic refcount
    /// increment.
    pub fn current(&self) -> Arc<PublishedModel> {
        let ptr = self.current.load(Ordering::Acquire);
        // SAFETY: `ptr` was produced by `Arc::as_ptr` on a snapshot
        // that `history` retains with a strong count ≥ 1 for the whole
        // registry lifetime — the pointee is alive, so reviving a new
        // strong reference is sound.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Version tag of the current snapshot.
    pub fn current_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Number of swaps performed (publishes after the initial model).
    pub fn swap_count(&self) -> u64 {
        self.current_version().saturating_sub(1)
    }

    /// Snapshots retained in the history (≥ 1).
    pub fn retained(&self) -> usize {
        self.history.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Look up a retained snapshot by version — the engine's circuit
    /// breaker uses this to route batches back to the last-good
    /// version when the current snapshot keeps failing evaluation.
    ///
    /// `None` if that version was pruned (or never existed). This is a
    /// genuine lookup of the retained history, never a cached alias:
    /// once [`ModelRegistry::prune`] drops a version, asking for it
    /// returns `None` — a stale `Arc` to a pruned snapshot can only be
    /// held by whoever captured it *before* the prune. Callers that
    /// need the distinction as a typed error use
    /// [`ModelRegistry::snapshot_checked`].
    pub fn snapshot_at(&self, version: u64) -> Option<Arc<PublishedModel>> {
        self.history
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|s| s.version == version)
            .map(Arc::clone)
    }

    /// Like [`ModelRegistry::snapshot_at`], but a miss is the typed
    /// [`ServeError::SnapshotPruned`] carrying the version asked for
    /// and the registry's current version — the answer the wire
    /// protocol and fleet paths propagate instead of a bare `None`.
    pub fn snapshot_checked(&self, version: u64) -> Result<Arc<PublishedModel>, ServeError> {
        self.snapshot_at(version).ok_or(ServeError::SnapshotPruned {
            version,
            current: self.current_version(),
        })
    }

    /// Publish a new model: validate it against the serving contract
    /// (same species count as the current snapshot — an MD client mid-
    /// trajectory cannot change chemistry) and swap it in atomically.
    /// In-flight requests finish on the snapshot they started with.
    /// Returns the new version tag.
    pub fn publish(&self, model: DeepPotModel) -> io::Result<u64> {
        self.publish_with_artifacts(model, None, None)
    }

    /// Publish a model together with its reduced-fidelity serving
    /// artifacts. Beyond the master's validation, each artifact must
    /// agree with the master on the species count — they are built
    /// from the same weights, and a mismatched artifact would route
    /// requests to a different chemistry.
    pub fn publish_with_artifacts(
        &self,
        model: DeepPotModel,
        compressed: Option<CompressedModel>,
        quantized: Option<QuantizedModel>,
    ) -> io::Result<u64> {
        model
            .cfg
            .try_validate()
            .map_err(|e| err(format!("refusing to publish invalid model: {e}")))?;
        if let Some(c) = &compressed {
            if c.cfg.n_types != model.cfg.n_types {
                return Err(err(format!(
                    "refusing to publish: compressed artifact has n_types {}, master {}",
                    c.cfg.n_types, model.cfg.n_types
                )));
            }
        }
        if let Some(q) = &quantized {
            if q.cfg.n_types != model.cfg.n_types {
                return Err(err(format!(
                    "refusing to publish: quantized artifact has n_types {}, master {}",
                    q.cfg.n_types, model.cfg.n_types
                )));
            }
        }
        let mut history = self.history.lock().unwrap_or_else(|e| e.into_inner());
        let cur_types = history
            .last()
            .map(|s| s.model.cfg.n_types)
            .unwrap_or(model.cfg.n_types);
        if model.cfg.n_types != cur_types {
            return Err(err(format!(
                "refusing to publish: n_types {} does not match the served model's {}",
                model.cfg.n_types, cur_types
            )));
        }
        let version = self.version.load(Ordering::Relaxed) + 1;
        let snapshot = Arc::new(PublishedModel {
            version,
            model,
            cache: EnvCache::new(self.cache_slots),
            compressed,
            quantized,
        });
        let ptr = Arc::as_ptr(&snapshot) as *mut PublishedModel;
        history.push(snapshot);
        // Order matters: the strong reference is in `history` *before*
        // the pointer becomes loadable, and the version counter trails
        // the pointer so `current_version() ≤ current().version` is
        // never violated for long (it is advisory either way).
        self.current.store(ptr, Ordering::Release);
        self.version.store(version, Ordering::Release);
        Ok(version)
    }

    /// Publish a serialized model, validating the bytes through the
    /// `model_io` loader (magic, CRC trailer, finite weights, config
    /// sanity) before anything reaches the serving path.
    pub fn publish_bytes(&self, bytes: &[u8]) -> io::Result<u64> {
        self.publish(model_io::from_bytes(bytes)?)
    }

    /// Publish a model file (the artifact the training loop checkpoints
    /// with `model_io::save`).
    pub fn publish_file(&self, path: impl AsRef<Path>) -> io::Result<u64> {
        self.publish(model_io::load(path)?)
    }

    /// Drop retained history beyond the newest `keep` snapshots.
    ///
    /// Requires `&mut self`: exclusive access proves no reader is
    /// between the pointer load and refcount increment of
    /// [`ModelRegistry::current`], so freeing old snapshots cannot race
    /// it. Snapshots still held by in-flight responses survive via
    /// their own `Arc`s. The current snapshot is always kept.
    ///
    /// Concurrent usage across shards therefore wraps the registry in
    /// a `RwLock`: readers (`current`, `publish`, `snapshot_at` — all
    /// `&self`) share the read lock, the pruner takes the write lock.
    /// After a prune, [`ModelRegistry::snapshot_at`] on a dropped
    /// version returns `None` and
    /// [`ModelRegistry::snapshot_checked`] returns
    /// [`ServeError::SnapshotPruned`] — never a stale snapshot.
    pub fn prune(&mut self, keep: usize) {
        let mut history = self.history.lock().unwrap_or_else(|e| e.into_inner());
        let keep = keep.max(1);
        if history.len() > keep {
            let drop_n = history.len() - keep;
            history.drain(..drop_n);
        }
    }
}

/// Model-id → registry table: the multi-tenant face of the registry.
///
/// A fleet serves many independent potentials (per-user, per-system);
/// each gets its own [`ModelRegistry`] under a `u64` model id. Id 0 is
/// the *default* model — the single-model engine API is exactly the
/// `model == 0` row, so every pre-fleet caller keeps working
/// unchanged. The map is read-mostly (per-batch lookups take a read
/// lock on a `BTreeMap`; registration is rare), and iteration order is
/// deterministic by id.
#[derive(Debug)]
pub struct ModelTable {
    models: RwLock<BTreeMap<u64, Arc<ModelRegistry>>>,
}

impl ModelTable {
    /// A table serving `registry` as model 0 (the single-model case).
    pub fn single(registry: Arc<ModelRegistry>) -> Arc<Self> {
        let mut map = BTreeMap::new();
        map.insert(0, registry);
        Arc::new(ModelTable { models: RwLock::new(map) })
    }

    /// A table with an explicit initial set of models.
    pub fn with_models(models: impl IntoIterator<Item = (u64, Arc<ModelRegistry>)>) -> Arc<Self> {
        Arc::new(ModelTable {
            models: RwLock::new(models.into_iter().collect()),
        })
    }

    /// Register (or replace) the registry behind `id`. Replacing is an
    /// atomic map update; requests in flight against the old registry
    /// finish on the snapshot `Arc`s they already hold.
    pub fn insert(&self, id: u64, registry: Arc<ModelRegistry>) {
        self.models
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, registry);
    }

    /// The registry behind `id`, if registered.
    pub fn get(&self, id: u64) -> Option<Arc<ModelRegistry>> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .map(Arc::clone)
    }

    /// The registry behind `id`, or the typed
    /// [`ServeError::UnknownModel`].
    pub fn get_checked(&self, id: u64) -> Result<Arc<ModelRegistry>, ServeError> {
        self.get(id).ok_or(ServeError::UnknownModel { model: id })
    }

    /// Registered model ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .copied()
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frame as frame, demo_model as model};
    use dp_data::dataset::Dataset;
    use dp_mdsim::lattice::Species;
    use dp_mdsim::Vec3;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn publish_bumps_version_and_swaps_pointer() {
        let reg = ModelRegistry::new(model(1));
        assert_eq!(reg.current_version(), 1);
        assert_eq!(reg.swap_count(), 0);
        let v = reg.publish(model(2)).unwrap();
        assert_eq!(v, 2);
        assert_eq!(reg.current().version, 2);
        assert_eq!(reg.swap_count(), 1);
        assert_eq!(reg.retained(), 2);
    }

    #[test]
    fn in_flight_snapshot_survives_a_swap() {
        let reg = ModelRegistry::new(model(1));
        let held = reg.current();
        let e_before = held.model.predict(&frame(5)).energy;
        reg.publish(model(2)).unwrap();
        // The held snapshot still computes with the old weights.
        let e_after = held.model.predict(&frame(5)).energy;
        assert_eq!(e_before.to_bits(), e_after.to_bits());
        assert_eq!(held.version, 1);
        assert_ne!(reg.current().version, held.version);
    }

    #[test]
    fn publish_bytes_validates_through_model_io() {
        let reg = ModelRegistry::new(model(1));
        let good = model_io::to_bytes(&model(3));
        assert_eq!(reg.publish_bytes(&good).unwrap(), 2);
        // A corrupt byte stream is rejected before it can be served.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let e = reg.publish_bytes(&bad).unwrap_err();
        assert!(e.to_string().contains("checksum"), "got: {e}");
        assert_eq!(reg.current_version(), 2, "failed publish must not swap");
    }

    #[test]
    fn species_mismatch_is_rejected() {
        let reg = ModelRegistry::new(model(1));
        // A two-species model cannot replace a one-species one mid-run.
        let mut cfg = deepmd_core::config::ModelConfig::small(2, 2.1);
        cfg.rcut_smooth = 1.2;
        let mut s =
            dp_mdsim::lattice::rocksalt(Species::new("A", 20.0), Species::new("B", 30.0), 4.4, [1, 1, 1]);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        s.jitter_positions(0.2, &mut rng);
        let f = dp_data::dataset::Snapshot {
            cell: s.cell.lengths(),
            types: s.types.clone(),
            type_names: s.type_names.clone(),
            pos: s.pos.clone(),
            energy: -1.0,
            forces: vec![Vec3::ZERO; s.n_atoms()],
            temperature: 300.0,
        };
        let mut ds = Dataset::new("AB", vec!["A".into(), "B".into()]);
        ds.push(f.clone());
        ds.push(f);
        let two_species = DeepPotModel::new(cfg, &ds);
        let e = reg.publish(two_species).unwrap_err();
        assert!(e.to_string().contains("n_types"), "got: {e}");
    }

    #[test]
    fn publish_with_artifacts_carries_both_tiers() {
        use deepmd_core::compress::CompressSpec;
        let reg = ModelRegistry::new(model(1));
        let m = model(2);
        let comp = CompressedModel::compress(&m, &CompressSpec::default()).unwrap();
        let quant = QuantizedModel::quantize(&comp, &[frame(1), frame(2)]).unwrap();
        let v = reg.publish_with_artifacts(m, Some(comp), Some(quant)).unwrap();
        assert_eq!(v, 2);
        let cur = reg.current();
        assert!(cur.compressed.is_some());
        assert!(cur.quantized.is_some());
        // A later master-only publish serves everything from the master
        // again — artifacts are per-snapshot, never inherited.
        reg.publish(model(3)).unwrap();
        let cur = reg.current();
        assert!(cur.compressed.is_none());
        assert!(cur.quantized.is_none());
    }

    #[test]
    fn snapshot_checked_types_the_pruned_miss() {
        let mut reg = ModelRegistry::new(model(1));
        for s in 2..5 {
            reg.publish(model(s)).unwrap();
        }
        assert_eq!(reg.snapshot_checked(2).unwrap().version, 2);
        reg.prune(1);
        assert!(reg.snapshot_at(2).is_none(), "pruned version must not resolve");
        assert_eq!(
            reg.snapshot_checked(2).unwrap_err(),
            ServeError::SnapshotPruned { version: 2, current: 4 }
        );
        // A version that never existed gets the same typed answer.
        assert!(matches!(
            reg.snapshot_checked(99).unwrap_err(),
            ServeError::SnapshotPruned { version: 99, current: 4 }
        ));
    }

    #[test]
    fn model_table_routes_ids_and_types_the_miss() {
        let table = ModelTable::single(Arc::new(ModelRegistry::new(model(1))));
        assert_eq!(table.ids(), vec![0]);
        table.insert(7, Arc::new(ModelRegistry::new(model(2))));
        assert_eq!(table.ids(), vec![0, 7]);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        assert!(table.get(7).is_some());
        assert_eq!(
            table.get_checked(3).unwrap_err(),
            ServeError::UnknownModel { model: 3 }
        );
    }

    #[test]
    fn prune_keeps_current_and_bounds_history() {
        let mut reg = ModelRegistry::new(model(1));
        for s in 2..6 {
            reg.publish(model(s)).unwrap();
        }
        assert_eq!(reg.retained(), 5);
        reg.prune(2);
        assert_eq!(reg.retained(), 2);
        assert_eq!(reg.current().version, 5, "current must survive pruning");
        reg.prune(0); // clamped to 1
        assert_eq!(reg.retained(), 1);
        assert_eq!(reg.current().version, 5);
    }
}
