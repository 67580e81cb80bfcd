//! Sharded serving fleet with rendezvous (highest-random-weight)
//! routing.
//!
//! One engine saturates one dispatcher; "millions of users" need many.
//! A [`Fleet`] runs N independent [`Engine`] shards — each with its
//! own two-lane [`crate::batch::BatchQueue`], SLO policy, and stats —
//! and routes every request by its *model id*: all traffic for one
//! model lands on one shard, so that model's snapshot geometry cache
//! is warmed in exactly one place.
//!
//! ## Routing rule
//!
//! Rendezvous/HRW hashing: shard `s` serves model `m` iff
//! `rendezvous_score(m, s)` is the maximum over the shard set (ties
//! broken toward the lower shard id). The routing is a pure function
//! of `(model, shard set)` — no coordination, no routing table to keep
//! consistent — and carries the HRW minimal-remap property: removing a
//! shard remaps only the keys that shard owned, and adding one steals
//! only the keys it now wins. The property tests in
//! `tests/routing_property.rs` and the `fleet` verify family pin both
//! the contract and golden score values (so a flipped hash constant is
//! caught, not just a skewed distribution).
//!
//! ## Model placement
//!
//! All shards share one [`ModelTable`]: a publish is visible
//! everywhere immediately, so re-routing (shard death, fleet resize)
//! never loses a model — only its cache warmth. Exclusivity of
//! *traffic*, not of *data*, is what the routing provides. Responses
//! are bitwise identical to the single-engine path: the engine math
//! does not know the fleet exists.
//!
//! ## Failure containment
//!
//! Killing a shard shuts its engine down; requests routed to it
//! resolve with the typed [`ServeError::Closed`] — never a hang — and
//! the other shards keep serving. Callers that want availability over
//! pinning re-route with [`ShardSet::without`].

use crate::batch::{BatchPolicy, InferRequest, InferResponse, ServeError, Ticket};
use crate::chaos::ChaosPlan;
use crate::engine::Engine;
use crate::registry::ModelTable;
use crate::slo::SloPolicy;
use crate::stats::StatsSnapshot;
use crate::tenant::TenantTable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Salt folded into every routing score. Part of the wire-visible
/// contract: changing it remaps every model in every deployed fleet,
/// and the `fleet` verify family pins golden scores against it.
pub const ROUTING_SALT: u64 = 0x6470_5f73_6572_7665; // "dp_serve"

/// splitmix64 finalizer — the same mixer the chaos plan and the verify
/// generators use, applied twice below so model and shard bits are
/// fully diffused before they meet.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The rendezvous weight of `(model, shard)`. Pure and stateless: the
/// whole routing contract derives from comparing these scores.
pub fn rendezvous_score(model: u64, shard: u32) -> u64 {
    mix(model ^ mix(u64::from(shard) ^ ROUTING_SALT))
}

/// An ordered set of shard ids (sorted, deduplicated) — the domain of
/// the routing function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSet {
    ids: Vec<u32>,
}

impl ShardSet {
    /// A set from arbitrary ids (sorted and deduplicated).
    pub fn new(ids: impl IntoIterator<Item = u32>) -> Self {
        let mut ids: Vec<u32> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ShardSet { ids }
    }

    /// The ids `0..n`.
    pub fn contiguous(n: u32) -> Self {
        ShardSet { ids: (0..n).collect() }
    }

    /// The member ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of shards in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the set has no shards.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// This set minus `id` (the re-routing domain after a shard loss).
    pub fn without(&self, id: u32) -> ShardSet {
        ShardSet {
            ids: self.ids.iter().copied().filter(|&s| s != id).collect(),
        }
    }

    /// Route a model id: the member with the highest
    /// [`rendezvous_score`], ties toward the lower shard id. `None`
    /// only for an empty set.
    pub fn route(&self, model: u64) -> Option<u32> {
        self.ids
            .iter()
            .copied()
            .max_by_key(|&s| (rendezvous_score(model, s), std::cmp::Reverse(s)))
    }
}

/// Fleet geometry. Every shard runs under default batching with no
/// overload limits and no chaos injection.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of engine shards (ids `0..shards`), clamped to ≥ 1.
    pub shards: u32,
}

impl FleetConfig {
    /// `shards` engines.
    pub fn new(shards: u32) -> Self {
        FleetConfig { shards }
    }
}

struct FleetShard {
    id: u32,
    engine: Arc<Engine>,
    alive: AtomicBool,
}

/// N independent engine shards behind one rendezvous router.
pub struct Fleet {
    shards: Vec<FleetShard>,
    set: ShardSet,
    models: Arc<ModelTable>,
    tenants: Arc<TenantTable>,
}

impl Fleet {
    /// Start `config.shards` engines over a shared model table and a
    /// shared tenant table. The table must hold at least one model.
    pub fn start(config: FleetConfig, models: Arc<ModelTable>) -> Fleet {
        let set = ShardSet::contiguous(config.shards.max(1));
        let tenants = Arc::new(TenantTable::new());
        let shards = set
            .ids()
            .iter()
            .map(|&id| FleetShard {
                id,
                engine: Engine::start_shard(
                    Arc::clone(&models),
                    SloPolicy::unbounded(BatchPolicy::default()),
                    ChaosPlan::none(),
                    Arc::clone(&tenants),
                ),
                alive: AtomicBool::new(true),
            })
            .collect();
        Fleet { shards, set, models, tenants }
    }

    /// The configured shard set (the routing domain — killed shards
    /// stay members so their traffic fails typed instead of silently
    /// moving; see [`Fleet::kill`]).
    pub fn shard_set(&self) -> &ShardSet {
        &self.set
    }

    /// The shared model table (publish into it to hot-swap; insert to
    /// bring a new model online fleet-wide).
    pub fn models(&self) -> &Arc<ModelTable> {
        &self.models
    }

    /// The fleet-wide per-tenant accounting table.
    pub fn tenants(&self) -> &Arc<TenantTable> {
        &self.tenants
    }

    /// Which shard id serves `model`.
    pub fn route(&self, model: u64) -> u32 {
        self.set.route(model).expect("fleet has at least one shard")
    }

    /// The engine behind a shard id.
    pub fn engine(&self, shard: u32) -> Option<&Arc<Engine>> {
        self.shards.iter().find(|s| s.id == shard).map(|s| &s.engine)
    }

    /// `true` while the shard accepts traffic.
    pub fn is_alive(&self, shard: u32) -> bool {
        self.shards
            .iter()
            .find(|s| s.id == shard)
            .is_some_and(|s| s.alive.load(Ordering::Acquire))
    }

    /// Submit a request to the shard owning its model id. A request
    /// routed to a killed shard resolves with [`ServeError::Closed`].
    pub fn submit(&self, req: InferRequest) -> Result<Ticket, ServeError> {
        let shard = self.route(req.model);
        let s = self
            .shards
            .iter()
            .find(|s| s.id == shard)
            .expect("routed shard is a member of the fleet");
        s.engine.submit(req)
    }

    /// Submit and wait — the fleet-level [`Engine::infer`] analogue.
    pub fn infer(&self, req: InferRequest) -> Result<InferResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Shut one shard down (idempotent). Its queued requests drain,
    /// new submissions to it resolve with [`ServeError::Closed`], and
    /// routing is *not* changed: pinned traffic fails typed rather
    /// than silently migrating to a cold shard. Returns `true` only
    /// when this call transitioned the shard from alive to dead;
    /// `false` for an already-dead or unknown shard id.
    pub fn kill(&self, shard: u32) -> bool {
        match self.shards.iter().find(|s| s.id == shard) {
            None => false,
            Some(s) => {
                let was_alive = s.alive.swap(false, Ordering::AcqRel);
                s.engine.shutdown();
                was_alive
            }
        }
    }

    /// Per-shard stats snapshots, ascending by shard id.
    pub fn stats_per_shard(&self) -> Vec<(u32, StatsSnapshot)> {
        self.shards.iter().map(|s| (s.id, s.engine.stats())).collect()
    }

    /// Shut every shard down (idempotent; also runs on drop).
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.alive.store(false, Ordering::Release);
            s.engine.shutdown();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frame as frame, demo_model as model};
    use crate::registry::ModelRegistry;

    #[test]
    fn routing_is_pure_and_total() {
        let set = ShardSet::contiguous(5);
        for m in 0..200u64 {
            let a = set.route(m).unwrap();
            let b = set.route(m).unwrap();
            assert_eq!(a, b, "routing must be deterministic");
            assert!(set.contains(a));
        }
        assert_eq!(ShardSet::new([]).route(7), None);
        assert_eq!(ShardSet::contiguous(1).route(12345), Some(0));
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        let set = ShardSet::contiguous(6);
        let gone = 3u32;
        let reduced = set.without(gone);
        assert_eq!(reduced.ids(), &[0, 1, 2, 4, 5]);
        for m in 0..500u64 {
            let before = set.route(m).unwrap();
            let after = reduced.route(m).unwrap();
            if before != gone {
                assert_eq!(before, after, "model {m} moved although its shard survived");
            } else {
                assert_ne!(after, gone);
            }
        }
    }

    #[test]
    fn shard_set_normalizes_ids() {
        let s = ShardSet::new([4, 1, 4, 2, 1]);
        assert_eq!(s.ids(), &[1, 2, 4]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.contains(2) && !s.contains(3));
    }

    #[test]
    fn fleet_serves_bitwise_and_kill_is_typed() {
        let models = ModelTable::single(Arc::new(ModelRegistry::new(model(31))));
        models.insert(1, Arc::new(ModelRegistry::new(model(32))));
        let fleet = Fleet::start(FleetConfig::new(3), Arc::clone(&models));
        let f = frame(17);
        for id in [0u64, 1] {
            let direct = models.get(id).unwrap().current().model.predict(&f);
            let resp = fleet
                .infer(InferRequest::new(f.clone(), true).for_model(id))
                .unwrap();
            assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
            for (a, b) in resp.forces.unwrap().iter().zip(&direct.forces) {
                assert_eq!(a.0.map(f64::to_bits), b.0.map(f64::to_bits));
            }
        }
        // Kill the shard owning model 0: its traffic fails typed, the
        // other models keep serving.
        let owner = fleet.route(0);
        assert!(fleet.kill(owner));
        assert!(!fleet.is_alive(owner));
        assert_eq!(
            fleet.infer(InferRequest::new(f.clone(), false)).unwrap_err(),
            ServeError::Closed
        );
        let survivor = fleet.route(1);
        if survivor != owner {
            assert!(fleet.infer(InferRequest::new(f, false).for_model(1)).is_ok());
        }
        fleet.shutdown();
    }
}
