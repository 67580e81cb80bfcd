//! The serving engine: one dispatcher thread draining the
//! [`BatchQueue`], computing each micro-batch against the current
//! snapshots of the models it serves, with the per-frame work fanned
//! across `dp-pool`.
//!
//! An engine serves a whole [`ModelTable`] (model-id → registry); the
//! single-model constructors are the `model == 0` special case. A
//! request naming an id outside the table resolves with
//! [`ServeError::UnknownModel`] before any compute is spent.
//!
//! Consistency contract: the dispatcher takes **one** snapshot per
//! *model* per batch, so every request in a batch — and every number
//! inside one response — is computed against exactly one published
//! snapshot of its model. A hot-swap lands between batches, never
//! inside one.
//!
//! Determinism contract: requests are independent (each one reads the
//! snapshot and writes only its own response slot), so batching K
//! frames is bitwise identical to K sequential single-frame calls at
//! any `DP_POOL_THREADS` — the same argument as the training-side
//! frame parallelism (DESIGN §8), with the combine step degenerate
//! because nothing is reduced across requests.
//!
//! Overload contract (DESIGN §12): under an [`SloPolicy`] the engine
//! sheds work it cannot serve within policy — typed, never silent.
//! Admission control lives in the queue ([`ServeError::Overloaded`]);
//! the dispatcher sheds requests whose deadline is already unmeetable
//! ([`ServeError::DeadlineExceeded`]), degrades to energy-only
//! responses under sustained queue pressure, and trips a circuit
//! breaker off a snapshot that keeps failing evaluation, routing
//! batches back to the last-good registry version. A seeded
//! [`ChaosPlan`] can inject dispatcher stalls and poisoned requests
//! for soak testing; production passes [`ChaosPlan::none`].

use crate::batch::{
    BatchPolicy, BatchQueue, Fidelity, InferRequest, InferResponse, Pending, ServeError, Ticket,
};
use crate::chaos::ChaosPlan;
use crate::registry::{ModelRegistry, ModelTable, PublishedModel};
use crate::slo::{CircuitBreaker, DegradeController, SloPolicy};
use crate::stats::{ServeStats, StatsSnapshot};
use crate::tenant::{TenantStats, TenantTable};
use dp_data::dataset::Snapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Shared {
    /// Every model this engine serves, by id.
    models: Arc<ModelTable>,
    /// The default model's registry (id 0, or the lowest id) — the
    /// single-model API surface and the stats-folding anchor.
    registry: Arc<ModelRegistry>,
    /// Per-tenant accounting, shared across a fleet's shards.
    tenants: Arc<TenantTable>,
    queue: BatchQueue,
    stats: Arc<ServeStats>,
    slo: SloPolicy,
    chaos: ChaosPlan,
    /// Engine-wide default tier for `Fidelity::Auto` requests, read
    /// once from `DP_FIDELITY` at startup.
    default_fidelity: Fidelity,
}

/// A running inference engine. Submissions are accepted from any
/// thread; shutdown (explicit or on drop) drains the queue before the
/// dispatcher exits, so every accepted request gets a response.
pub struct Engine {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Start the dispatcher over `registry` with the given batching
    /// policy and no overload protection beyond the circuit breaker
    /// (the pre-SLO behavior; see [`SloPolicy::unbounded`]).
    pub fn start(registry: Arc<ModelRegistry>, policy: BatchPolicy) -> Arc<Engine> {
        Self::start_slo(registry, SloPolicy::unbounded(policy))
    }

    /// Start the dispatcher under a full [`SloPolicy`]: bounded queue,
    /// priority lanes, deadline shedding, degradation, breaker.
    pub fn start_slo(registry: Arc<ModelRegistry>, slo: SloPolicy) -> Arc<Engine> {
        Self::start_chaos(registry, slo, ChaosPlan::none())
    }

    /// [`Engine::start_slo`] with seeded chaos injection (dispatcher
    /// stalls, poisoned requests) — the soak harness's entry point.
    pub fn start_chaos(
        registry: Arc<ModelRegistry>,
        slo: SloPolicy,
        chaos: ChaosPlan,
    ) -> Arc<Engine> {
        let models = ModelTable::single(registry);
        Self::start_shard(models, slo, chaos, Arc::new(TenantTable::new()))
    }

    /// Start a fleet shard: a dispatcher over a full [`ModelTable`]
    /// with per-tenant accounting into a (typically shared)
    /// [`TenantTable`]. The table must hold at least one model; id 0
    /// (or, failing that, the lowest id) becomes the default model the
    /// single-model API surface ([`Engine::registry`],
    /// [`Engine::infer`]) operates on.
    pub fn start_shard(
        models: Arc<ModelTable>,
        slo: SloPolicy,
        chaos: ChaosPlan,
        tenants: Arc<TenantTable>,
    ) -> Arc<Engine> {
        let default_id = models
            .ids()
            .first()
            .copied()
            .expect("dp-serve: an engine needs at least one model");
        let registry = models
            .get(default_id)
            .expect("dp-serve: default model disappeared during startup");
        let stats = Arc::new(ServeStats::new());
        let shared = Arc::new(Shared {
            models,
            registry,
            tenants,
            queue: BatchQueue::bounded(slo.queue_capacity, Arc::clone(&stats)),
            stats,
            slo,
            chaos,
            default_fidelity: Fidelity::from_env(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("dp-serve".into())
            .spawn(move || dispatch_loop(&worker_shared))
            .expect("dp-serve: failed to spawn dispatcher");
        Arc::new(Engine {
            shared,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Enqueue a request; block on the ticket for the response.
    pub fn submit(&self, req: InferRequest) -> Result<Ticket, ServeError> {
        self.shared.queue.submit(req)
    }

    /// Convenience: submit one interactive frame and wait for its
    /// response.
    pub fn infer(&self, frame: Snapshot, want_forces: bool) -> Result<InferResponse, ServeError> {
        self.submit(InferRequest::new(frame, want_forces))?.wait()
    }

    /// The default model's registry (publish into it to hot-swap the
    /// model the single-model API serves).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Every model this engine serves, by id. Insert into the table to
    /// bring a new model online; requests name it via
    /// [`InferRequest::for_model`].
    pub fn models(&self) -> &Arc<ModelTable> {
        &self.shared.models
    }

    /// Per-tenant accounting (shared across shards in a fleet).
    pub fn tenants(&self) -> &Arc<TenantTable> {
        &self.shared.tenants
    }

    /// The policy the engine runs under.
    pub fn slo(&self) -> &SloPolicy {
        &self.shared.slo
    }

    /// Requests currently queued (not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Point-in-time serving statistics. Folds the current snapshot's
    /// live geometry-cache counters in with those of retired
    /// snapshots.
    pub fn stats(&self) -> StatsSnapshot {
        let current = self.shared.registry.current();
        let live = current.cache.stats();
        let mut snap = self.shared.stats.snapshot(self.shared.registry.swap_count());
        let hits = self.shared.stats.cache_hits.load(Ordering::Relaxed) + live.hits;
        let misses =
            self.shared.stats.cache_misses.load(Ordering::Relaxed) + live.misses;
        snap.cache_hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        snap
    }

    /// Stop accepting requests, drain what is queued, and join the
    /// dispatcher. Requests still queued when the dispatcher exits —
    /// it drains everything in the normal case, so this only covers a
    /// dispatcher that died — are fulfilled with
    /// [`ServeError::Closed`], never stranded. Idempotent.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let handle = self
            .worker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        // Safety net: a panicked dispatcher leaves the queue non-empty.
        self.shared.queue.reject_remaining();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reject requests the snapshot cannot evaluate (instead of letting a
/// malformed frame panic the dispatcher).
fn validate(req: &InferRequest, snapshot: &PublishedModel) -> Result<(), ServeError> {
    let n_types = snapshot.model.cfg.n_types;
    if req.frame.pos.len() != req.frame.types.len() {
        return Err(ServeError::BadRequest(format!(
            "{} positions for {} type ids",
            req.frame.pos.len(),
            req.frame.types.len()
        )));
    }
    if req.frame.types.is_empty() {
        return Err(ServeError::BadRequest("empty frame".into()));
    }
    if let Some(&t) = req.frame.types.iter().find(|&&t| t >= n_types) {
        return Err(ServeError::BadRequest(format!(
            "type id {t} out of range for a {n_types}-species model"
        )));
    }
    Ok(())
}

/// Per-request outcome codes fed to the circuit breaker after the
/// parallel fan-out (plain `u8`s behind atomics so worker threads can
/// write them without locks).
const OUTCOME_CLIENT_ERR: u8 = 0;
const OUTCOME_OK: u8 = 1;
const OUTCOME_EVAL_FAILED: u8 = 2;

/// Resolve which tier serves a request: an explicit request pin wins,
/// then the engine-wide `DP_FIDELITY` default, then the `Auto` policy
/// (degraded or energy-only traffic → quantized, force requests →
/// compressed). A resolved tier the snapshot doesn't carry falls back
/// toward the master (quantized → compressed → master), so routing
/// never fails a request — the response's fidelity tag names what
/// actually served it. Master-only publishes therefore serve
/// everything from the master, bitwise identical to the pre-routing
/// engine.
fn resolve_fidelity(
    requested: Fidelity,
    engine_default: Fidelity,
    want_forces: bool,
    degraded: bool,
    snapshot: &PublishedModel,
) -> Fidelity {
    let mut choice = if requested != Fidelity::Auto { requested } else { engine_default };
    if choice == Fidelity::Auto {
        choice = if degraded || !want_forces {
            Fidelity::Quantized
        } else {
            Fidelity::Compressed
        };
    }
    if choice == Fidelity::Quantized && snapshot.quantized.is_none() {
        choice = Fidelity::Compressed;
    }
    if choice == Fidelity::Compressed && snapshot.compressed.is_none() {
        choice = Fidelity::Master;
    }
    choice
}

fn dispatch_loop(shared: &Shared) {
    // Per model id: the snapshot last served from (so a swap can fold
    // the retired snapshot's cache counters into the engine-lifetime
    // stats) and a circuit breaker (one model's poisoned snapshot must
    // not take the whole engine's traffic with it).
    let mut last: HashMap<u64, Arc<PublishedModel>> = HashMap::new();
    let mut breakers: HashMap<u64, CircuitBreaker> = HashMap::new();
    let mut degrade = DegradeController::new(&shared.slo);
    let mut batch_idx: u64 = 0;
    let mut req_idx: u64 = 0;
    // EWMA of per-request service time, the projection used for
    // deadline shedding (0 until the first batch completes).
    let mut ewma_service_ns: f64 = 0.0;
    while let Some(drained) = shared.queue.next_batch(&shared.slo.batch) {
        if shared.chaos.stalls(batch_idx) {
            std::thread::sleep(shared.chaos.stall);
        }
        batch_idx += 1;
        shared.stats.record_batch(
            drained.batch.len(),
            drained.depth,
            drained.interactive_depth,
            drained.bulk_depth,
        );
        let degraded = degrade.observe(drained.depth);

        // Deadline shedding, before any compute is spent: a request
        // whose budget is already blown — or provably will be once the
        // projected service time is added — resolves with a typed
        // error instead of a late answer.
        let projection = if shared.slo.shed_projected {
            Duration::from_nanos(ewma_service_ns as u64)
        } else {
            Duration::ZERO
        };
        let mut eval: Vec<Pending> = Vec::with_capacity(drained.batch.len());
        for p in drained.batch {
            if let Some(budget) = p.request().deadline {
                let waited = p.submitted().elapsed();
                if waited + projection > budget {
                    shared.stats.record_deadline_miss();
                    shared.stats.record_request(waited.as_nanos() as u64);
                    shared
                        .tenants
                        .handle(p.request().tenant)
                        .record(waited.as_nanos() as u64, false, false);
                    p.fulfill(Err(ServeError::DeadlineExceeded { waited, budget }));
                    continue;
                }
            }
            eval.push(p);
        }
        if eval.is_empty() {
            continue;
        }

        // Resolve one snapshot per distinct model id in the batch
        // (first-seen order — deterministic given the batch contents).
        // Per model, the breaker may route to the last-good version.
        let mut snaps: Vec<Arc<PublishedModel>> = Vec::new();
        let mut snap_models: Vec<u64> = Vec::new();
        let mut snap_of: HashMap<u64, Option<usize>> = HashMap::new();
        for p in &eval {
            let id = p.request().model;
            if snap_of.contains_key(&id) {
                continue;
            }
            let resolved = shared.models.get(id).map(|reg| {
                let current = reg.current();
                let breaker = breakers
                    .entry(id)
                    .or_insert_with(|| CircuitBreaker::new(shared.slo.breaker_threshold));
                let routed = breaker.route(current.version);
                let snapshot = if routed == current.version {
                    current
                } else {
                    // Route around the poisoned snapshot; if the
                    // fallback was pruned, there is nothing better
                    // than current.
                    reg.snapshot_at(routed).unwrap_or(current)
                };
                if let Some(prev) = last.get(&id) {
                    if prev.version != snapshot.version {
                        let retired = prev.cache.stats();
                        shared.stats.record_cache(retired.hits, retired.misses);
                    }
                }
                last.insert(id, Arc::clone(&snapshot));
                snap_models.push(id);
                snaps.push(snapshot);
                snaps.len() - 1
            });
            snap_of.insert(id, resolved);
        }

        // Fulfill unknown-model requests with the typed error before
        // any fan-out; pre-resolve each surviving request's snapshot
        // index and tenant handle so workers never touch a lock.
        let mut batch: Vec<Pending> = Vec::with_capacity(eval.len());
        let mut snap_idx: Vec<usize> = Vec::with_capacity(eval.len());
        let mut tenant_stats: Vec<Arc<TenantStats>> = Vec::with_capacity(eval.len());
        for p in eval {
            let id = p.request().model;
            match snap_of[&id] {
                None => {
                    let waited = p.submitted().elapsed().as_nanos() as u64;
                    shared.stats.record_request(waited);
                    shared.tenants.handle(p.request().tenant).record(waited, false, false);
                    p.fulfill(Err(ServeError::UnknownModel { model: id }));
                }
                Some(si) => {
                    snap_idx.push(si);
                    tenant_stats.push(shared.tenants.handle(p.request().tenant));
                    batch.push(p);
                }
            }
        }
        if batch.is_empty() {
            continue;
        }

        let outcomes: Vec<AtomicU8> =
            (0..batch.len()).map(|_| AtomicU8::new(OUTCOME_CLIENT_ERR)).collect();
        let t_eval = Instant::now();
        let batch_ref = &batch;
        let outcomes_ref = &outcomes;
        let snaps_ref = &snaps;
        let snap_idx_ref = &snap_idx;
        let tenants_ref = &tenant_stats;
        let stats_ref = &shared.stats;
        let chaos_ref = &shared.chaos;
        let default_fidelity = shared.default_fidelity;
        dp_pool::parallel_for(batch.len(), &|i| {
            let pending = &batch_ref[i];
            let snapshot_ref = &snaps_ref[snap_idx_ref[i]];
            let result = match validate(&pending.req, snapshot_ref) {
                Err(e) => Err(e),
                Ok(()) if chaos_ref.poisons(req_idx + i as u64) => {
                    outcomes_ref[i].store(OUTCOME_EVAL_FAILED, Ordering::Relaxed);
                    stats_ref.record_eval_failure();
                    Err(ServeError::EvalFailed("chaos-poisoned request".into()))
                }
                Ok(()) => {
                    let fidelity = resolve_fidelity(
                        pending.req.fidelity,
                        default_fidelity,
                        pending.req.want_forces,
                        degraded,
                        snapshot_ref,
                    );
                    // The quantized tier never serves forces; routing a
                    // forces request there (explicit pin or degraded
                    // service) drops them, flagged via `degraded`.
                    let serve_forces =
                        pending.req.want_forces && !degraded && fidelity != Fidelity::Quantized;
                    let (energy, forces) = match fidelity {
                        Fidelity::Quantized => {
                            let q = snapshot_ref.quantized.as_ref().expect("resolved tier exists");
                            (q.energy_keyed(&snapshot_ref.cache, &pending.req.frame), None)
                        }
                        Fidelity::Compressed => {
                            let c = snapshot_ref.compressed.as_ref().expect("resolved tier exists");
                            let pass = c.forward_keyed(&snapshot_ref.cache, &pending.req.frame);
                            (pass.energy, serve_forces.then(|| c.forces(&pass)))
                        }
                        _ => {
                            let model = &snapshot_ref.model;
                            let pass = model.forward_keyed(&snapshot_ref.cache, &pending.req.frame);
                            (pass.energy, serve_forces.then(|| model.forces(&pass)))
                        }
                    };
                    let finite = energy.is_finite()
                        && forces
                            .as_ref()
                            .is_none_or(|fs| fs.iter().all(|f| f.0.iter().all(|v| v.is_finite())));
                    if finite {
                        outcomes_ref[i].store(OUTCOME_OK, Ordering::Relaxed);
                        let was_degraded = pending.req.want_forces && !serve_forces;
                        if was_degraded {
                            stats_ref.record_degraded();
                        }
                        Ok(InferResponse {
                            energy,
                            forces,
                            version: snapshot_ref.version,
                            degraded: was_degraded,
                            fidelity,
                        })
                    } else {
                        outcomes_ref[i].store(OUTCOME_EVAL_FAILED, Ordering::Relaxed);
                        stats_ref.record_eval_failure();
                        Err(ServeError::EvalFailed(format!(
                            "non-finite model output from snapshot v{}",
                            snapshot_ref.version
                        )))
                    }
                }
            };
            let latency_ns = pending.submitted.elapsed().as_nanos() as u64;
            stats_ref.record_request(latency_ns);
            let (ok, was_degraded) = match &result {
                Ok(r) => (true, r.degraded),
                Err(_) => (false, false),
            };
            tenants_ref[i].record(latency_ns, ok, was_degraded);
            pending.fulfill(result);
        });
        req_idx += batch.len() as u64;
        let per_req_ns = t_eval.elapsed().as_nanos() as f64 / batch.len() as f64;
        ewma_service_ns = if ewma_service_ns == 0.0 {
            per_req_ns
        } else {
            0.8 * ewma_service_ns + 0.2 * per_req_ns
        };
        // Feed each model's breaker in index order (deterministic given
        // the batch contents — the parallel fan-out only wrote codes).
        for (i, o) in outcomes.iter().enumerate() {
            let si = snap_idx[i];
            let version = snaps[si].version;
            let breaker = breakers
                .get_mut(&snap_models[si])
                .expect("breaker exists for every served model");
            match o.load(Ordering::Relaxed) {
                OUTCOME_OK => {
                    breaker.on_result(version, true);
                }
                OUTCOME_EVAL_FAILED if breaker.on_result(version, false) => {
                    shared.stats.record_breaker_trip();
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frame as frame, demo_model as model};
    use crate::slo::Priority;
    use std::time::Duration;

    fn engine(seed: u64) -> Arc<Engine> {
        let registry = Arc::new(ModelRegistry::new(model(seed)));
        Engine::start(registry, BatchPolicy::default())
    }

    /// A model whose every evaluation is non-finite (NaN weights pass
    /// config validation — catching them is the breaker's job).
    fn poisoned_model(seed: u64) -> deepmd_core::model::DeepPotModel {
        let mut m = model(seed);
        let n = m.get_params().len();
        m.set_params(&vec![f64::NAN; n]);
        m
    }

    #[test]
    fn served_response_matches_direct_prediction_bitwise() {
        let e = engine(5);
        let f = frame(9);
        let direct = e.registry().current().model.predict(&f);
        let resp = e.infer(f, true).unwrap();
        assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
        let forces = resp.forces.unwrap();
        assert_eq!(forces.len(), direct.forces.len());
        for (a, b) in forces.iter().zip(&direct.forces) {
            assert_eq!(a.0.map(f64::to_bits), b.0.map(f64::to_bits));
        }
        assert_eq!(resp.version, 1);
        assert!(!resp.degraded);
        e.shutdown();
    }

    /// An engine over a snapshot that carries all three tiers.
    fn tiered_engine(seed: u64) -> Arc<Engine> {
        use deepmd_core::compress::{CompressSpec, CompressedModel};
        use deepmd_core::quant::QuantizedModel;
        let m = model(seed);
        let comp = CompressedModel::compress(&m, &CompressSpec::default()).unwrap();
        let quant = QuantizedModel::quantize(&comp, &[frame(1), frame(2)]).unwrap();
        let registry = Arc::new(ModelRegistry::new(model(seed)));
        registry.publish_with_artifacts(m, Some(comp), Some(quant)).unwrap();
        Engine::start(registry, BatchPolicy::default())
    }

    #[test]
    fn auto_routes_forces_to_compressed_and_energy_to_quantized() {
        let e = tiered_engine(5);
        let f = frame(9);
        let direct = e.registry().current().model.predict(&f);
        let with_forces = e.infer(f.clone(), true).unwrap();
        assert_eq!(with_forces.fidelity, Fidelity::Compressed);
        assert!(!with_forces.degraded);
        let n_atoms = f.types.len() as f64;
        assert!((with_forces.energy - direct.energy).abs() / n_atoms < 1e-3);
        for (a, b) in with_forces.forces.unwrap().iter().zip(&direct.forces) {
            for c in 0..3 {
                assert!((a.0[c] - b.0[c]).abs() < 1e-2);
            }
        }
        let energy_only = e.infer(f, false).unwrap();
        assert_eq!(energy_only.fidelity, Fidelity::Quantized);
        assert!(energy_only.forces.is_none());
        assert!(!energy_only.degraded);
        assert!((energy_only.energy - direct.energy).abs() / n_atoms < 1e-3);
        e.shutdown();
    }

    #[test]
    fn pinned_master_stays_bitwise_on_a_tiered_snapshot() {
        let e = tiered_engine(6);
        let f = frame(10);
        let direct = e.registry().current().model.predict(&f);
        let resp = e
            .submit(InferRequest::new(f, true).with_fidelity(Fidelity::Master))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.fidelity, Fidelity::Master);
        assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
        for (a, b) in resp.forces.unwrap().iter().zip(&direct.forces) {
            assert_eq!(a.0.map(f64::to_bits), b.0.map(f64::to_bits));
        }
        e.shutdown();
    }

    #[test]
    fn quantized_pin_drops_forces_and_flags_degraded() {
        let e = tiered_engine(7);
        let resp = e
            .submit(InferRequest::new(frame(11), true).with_fidelity(Fidelity::Quantized))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.fidelity, Fidelity::Quantized);
        assert!(resp.forces.is_none());
        assert!(resp.degraded, "requested forces were dropped — must be flagged");
        e.shutdown();
    }

    #[test]
    fn absent_tiers_fall_back_to_the_master_bitwise() {
        // Master-only snapshot: every pin resolves to the master, so
        // pre-routing behavior (and its bitwise contract) is preserved.
        let e = engine(8);
        let f = frame(12);
        let direct = e.registry().current().model.predict(&f);
        for pin in [Fidelity::Auto, Fidelity::Compressed, Fidelity::Quantized] {
            let resp = e
                .submit(InferRequest::new(f.clone(), true).with_fidelity(pin))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(resp.fidelity, Fidelity::Master, "pin {pin} on master-only snapshot");
            assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
            assert!(!resp.degraded);
            assert!(resp.forces.is_some());
        }
        e.shutdown();
    }

    #[test]
    fn energy_only_requests_skip_forces() {
        let e = engine(6);
        let resp = e.infer(frame(3), false).unwrap();
        assert!(resp.energy.is_finite());
        assert!(resp.forces.is_none());
        assert!(!resp.degraded, "energy-only by request is not degradation");
        e.shutdown();
    }

    #[test]
    fn repeated_geometry_hits_the_snapshot_cache() {
        let e = engine(7);
        let f = frame(11);
        let _ = e.infer(f.clone(), false).unwrap();
        let _ = e.infer(f, false).unwrap();
        let stats = e.stats();
        assert!(
            stats.cache_hit_rate > 0.0,
            "second identical geometry must hit: {stats:?}"
        );
        e.shutdown();
    }

    #[test]
    fn malformed_frames_get_a_typed_error_not_a_dead_dispatcher() {
        let e = engine(8);
        let mut bad = frame(2);
        bad.types[0] = 9; // out of range for a 1-species model
        let err = e.infer(bad, false).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "got {err}");
        // The dispatcher survived and keeps serving.
        assert!(e.infer(frame(4), false).unwrap().energy.is_finite());
        e.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_requests_and_rejects_new_ones() {
        let registry = Arc::new(ModelRegistry::new(model(9)));
        let e = Engine::start(
            registry,
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(50),
            },
        );
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                e.submit(InferRequest::new(frame(20 + i), false)).unwrap()
            })
            .collect();
        e.shutdown();
        for t in tickets {
            assert!(t.wait().unwrap().energy.is_finite(), "accepted request must be served");
        }
        assert_eq!(
            e.infer(frame(1), false).unwrap_err(),
            ServeError::Closed,
            "post-shutdown submissions are refused"
        );
    }

    #[test]
    fn stats_count_requests_and_batches() {
        let e = engine(10);
        for i in 0..8 {
            let _ = e.infer(frame(30 + i), i % 2 == 0).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.requests, 8);
        assert!(s.batches >= 1 && s.batches <= 8);
        assert!(s.latency_p50_ns.unwrap() > 0.0);
        assert!(s.latency_p99_ns.unwrap() >= s.latency_p50_ns.unwrap());
        e.shutdown();
    }

    #[test]
    fn hot_swap_changes_the_serving_version_between_requests() {
        let e = engine(11);
        let f = frame(40);
        let r1 = e.infer(f.clone(), false).unwrap();
        assert_eq!(r1.version, 1);
        e.registry().publish(model(12)).unwrap();
        let r2 = e.infer(f, false).unwrap();
        assert_eq!(r2.version, 2);
        assert_eq!(e.stats().swaps, 1);
        e.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_with_a_typed_error() {
        let registry = Arc::new(ModelRegistry::new(model(13)));
        let e = Engine::start_slo(
            registry,
            SloPolicy {
                batch: BatchPolicy { max_batch: 8, max_wait: Duration::from_millis(30) },
                ..SloPolicy::default()
            },
        );
        // A zero budget is blown by the coalescing wait alone.
        let t = e
            .submit(InferRequest::new(frame(1), true).with_deadline(Duration::ZERO))
            .unwrap();
        match t.wait() {
            Err(ServeError::DeadlineExceeded { waited, budget }) => {
                assert_eq!(budget, Duration::ZERO);
                assert!(waited > Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A generous budget is met.
        let ok = e
            .submit(InferRequest::new(frame(2), true).with_deadline(Duration::from_secs(60)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(ok.energy.is_finite());
        assert_eq!(e.stats().deadline_miss, 1);
        e.shutdown();
    }

    #[test]
    fn sustained_pressure_degrades_to_energy_only_and_recovers() {
        let registry = Arc::new(ModelRegistry::new(model(14)));
        let e = Engine::start_slo(
            registry,
            SloPolicy {
                batch: BatchPolicy { max_batch: 4, max_wait: Duration::from_millis(1) },
                ..SloPolicy::always_degraded(BatchPolicy {
                    max_batch: 4,
                    max_wait: Duration::from_millis(1),
                })
            },
        );
        let f = frame(21);
        let resp = e.infer(f.clone(), true).unwrap();
        assert!(resp.degraded, "always-degraded policy must flag the response");
        assert!(resp.forces.is_none(), "degraded response skips forces");
        // The energy is the full path's energy, bitwise.
        let direct = e.registry().current().model.predict(&f);
        assert_eq!(resp.energy.to_bits(), direct.energy.to_bits());
        assert!(e.stats().degraded >= 1);
        e.shutdown();
    }

    #[test]
    fn breaker_routes_around_a_poisoned_snapshot_and_recovers() {
        let registry = Arc::new(ModelRegistry::new(model(15)));
        let e = Engine::start_slo(
            registry,
            SloPolicy {
                batch: BatchPolicy { max_batch: 1, max_wait: Duration::from_micros(100) },
                breaker_threshold: 3,
                ..SloPolicy::default()
            },
        );
        // Healthy v1 establishes last-good.
        assert_eq!(e.infer(frame(1), false).unwrap().version, 1);
        // v2 is poisoned: every evaluation is non-finite.
        e.registry().publish(poisoned_model(16)).unwrap();
        let mut failures = 0;
        for i in 0..3 {
            match e.infer(frame(50 + i), false) {
                Err(ServeError::EvalFailed(_)) => failures += 1,
                other => panic!("expected EvalFailed from poisoned v2, got {other:?}"),
            }
        }
        assert_eq!(failures, 3);
        // The breaker tripped: subsequent requests are served by v1
        // even though the registry's current version is 2.
        let routed = e.infer(frame(60), false).unwrap();
        assert_eq!(routed.version, 1, "poisoned snapshot must be routed around");
        assert!(routed.energy.is_finite());
        assert_eq!(e.registry().current_version(), 2);
        let s = e.stats();
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.eval_failures, 3);
        // A healthy v3 publish closes the breaker.
        e.registry().publish(model(17)).unwrap();
        assert_eq!(e.infer(frame(61), false).unwrap().version, 3);
        e.shutdown();
    }

    #[test]
    fn bulk_lane_is_shed_before_interactive_under_overload() {
        let registry = Arc::new(ModelRegistry::new(model(18)));
        let e = Engine::start_slo(
            registry,
            SloPolicy {
                // max_batch above capacity: the dispatcher holds the
                // queued requests until the coalescing deadline, so the
                // queue deterministically fills to capacity.
                batch: BatchPolicy { max_batch: 8, max_wait: Duration::from_millis(300) },
                queue_capacity: 4,
                ..SloPolicy::default()
            },
        );
        // Fill the queue with bulk work (the dispatcher is waiting out
        // max_wait on the first batch, so these pile up).
        let bulk: Vec<_> = (0..4)
            .filter_map(|i| e.submit(InferRequest::new(frame(70 + i), false).bulk()).ok())
            .collect();
        // Interactive arrivals evict queued bulk rather than being
        // rejected themselves.
        let inter = e.submit(InferRequest::new(frame(80), false));
        assert!(inter.is_ok(), "interactive arrival must be admitted");
        let outcomes: Vec<_> = bulk.into_iter().map(|t| t.wait()).collect();
        let evicted = outcomes
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
            .count();
        assert!(evicted >= 1, "a queued bulk request must have been evicted: {outcomes:?}");
        assert!(inter.unwrap().wait().is_ok());
        assert!(e.stats().shed >= 1);
        e.shutdown();
    }

    #[test]
    fn chaos_poisoned_requests_fail_typed_and_the_engine_survives() {
        let registry = Arc::new(ModelRegistry::new(model(19)));
        let e = Engine::start_chaos(
            registry,
            SloPolicy {
                batch: BatchPolicy { max_batch: 1, max_wait: Duration::from_micros(100) },
                breaker_threshold: 0, // isolate the poison path
                ..SloPolicy::default()
            },
            ChaosPlan { seed: 4, poison_prob: 1.0, ..ChaosPlan::none() },
        );
        for i in 0..4 {
            match e.infer(frame(90 + i), true) {
                Err(ServeError::EvalFailed(m)) => assert!(m.contains("poisoned")),
                other => panic!("expected chaos poison, got {other:?}"),
            }
        }
        assert_eq!(e.stats().eval_failures, 4);
        e.shutdown();
    }

    #[test]
    fn request_builders_set_lane_and_deadline() {
        let r = InferRequest::new(frame(1), true);
        assert_eq!(r.priority, Priority::Interactive);
        assert_eq!(r.deadline, None);
        assert_eq!((r.model, r.tenant), (0, 0));
        let r = r
            .bulk()
            .with_deadline(Duration::from_millis(7))
            .for_model(3)
            .from_tenant(9);
        assert_eq!(r.priority, Priority::Bulk);
        assert_eq!(r.deadline, Some(Duration::from_millis(7)));
        assert_eq!((r.model, r.tenant), (3, 9));
    }

    #[test]
    fn multi_model_batches_serve_each_id_from_its_own_registry() {
        use crate::registry::ModelTable;
        use crate::tenant::TenantTable;
        let table = ModelTable::single(Arc::new(ModelRegistry::new(model(21))));
        table.insert(5, Arc::new(ModelRegistry::new(model(22))));
        let e = Engine::start_shard(
            Arc::clone(&table),
            SloPolicy::unbounded(BatchPolicy::default()),
            ChaosPlan::none(),
            Arc::new(TenantTable::new()),
        );
        let f = frame(33);
        let d0 = table.get(0).unwrap().current().model.predict(&f);
        let d5 = table.get(5).unwrap().current().model.predict(&f);
        assert_ne!(d0.energy.to_bits(), d5.energy.to_bits(), "distinct models");
        // Same batch, two models: each request must hit its own model.
        let t0 = e.submit(InferRequest::new(f.clone(), false)).unwrap();
        let t5 = e.submit(InferRequest::new(f.clone(), false).for_model(5)).unwrap();
        assert_eq!(t0.wait().unwrap().energy.to_bits(), d0.energy.to_bits());
        assert_eq!(t5.wait().unwrap().energy.to_bits(), d5.energy.to_bits());
        // An unknown id is a typed error, and the engine keeps serving.
        let e9 = e.submit(InferRequest::new(f.clone(), false).for_model(9)).unwrap();
        assert_eq!(e9.wait().unwrap_err(), ServeError::UnknownModel { model: 9 });
        assert!(e.infer(f, false).unwrap().energy.is_finite());
        e.shutdown();
    }

    #[test]
    fn tenants_are_accounted_separately() {
        use crate::registry::ModelTable;
        use crate::tenant::TenantTable;
        let table = ModelTable::single(Arc::new(ModelRegistry::new(model(23))));
        let tenants = Arc::new(TenantTable::new());
        let e = Engine::start_shard(
            table,
            SloPolicy::unbounded(BatchPolicy::default()),
            ChaosPlan::none(),
            Arc::clone(&tenants),
        );
        for i in 0..3 {
            let _ = e
                .submit(InferRequest::new(frame(40 + i), false).from_tenant(1))
                .unwrap()
                .wait()
                .unwrap();
        }
        let bad = e
            .submit(InferRequest::new(frame(44), false).from_tenant(2).for_model(77))
            .unwrap()
            .wait();
        assert!(matches!(bad, Err(ServeError::UnknownModel { model: 77 })));
        let t1 = tenants.get(1).unwrap().snapshot();
        let t2 = tenants.get(2).unwrap().snapshot();
        assert_eq!((t1.requests, t1.ok, t1.errors), (3, 3, 0));
        assert_eq!((t2.requests, t2.ok, t2.errors), (1, 0, 1));
        e.shutdown();
    }
}
