//! # dp-serve — batched inference with hot-swappable models
//!
//! The paper trains a DeePMD model in minutes "as a step towards
//! online learning"; this crate is the other half of that loop: the
//! freshly trained potential must *serve* energy/force queries to
//! running MD drivers while the next retrain is already under way.
//!
//! Three pieces:
//!
//! * [`ModelRegistry`] — published model snapshots behind an atomic
//!   pointer. `publish` validates and swaps in one store; `current` is
//!   a lock-free read. In-flight requests finish on the snapshot they
//!   started with, so a swap is never observed mid-request.
//! * [`BatchQueue`] / [`Engine`] — clients submit [`InferRequest`]s
//!   from any thread; a dispatcher coalesces them into micro-batches
//!   (size-or-deadline policy) and fans each batch across `dp-pool`,
//!   reusing the snapshot's geometry cache so repeated configurations
//!   skip the environment build. Batched results are bitwise identical
//!   to sequential single-frame calls at any thread count.
//! * [`ServeStats`] — queue depth, batch-size and latency histograms
//!   (log2 fixed buckets, allocation-free record path), swap count and
//!   cache hit rate.
//!
//! ```no_run
//! use dp_serve::{BatchPolicy, Engine, ModelRegistry};
//! use std::sync::Arc;
//! # fn get_model() -> deepmd_core::model::DeepPotModel { unimplemented!() }
//! # fn get_frame() -> dp_data::dataset::Snapshot { unimplemented!() }
//!
//! let registry = Arc::new(ModelRegistry::new(get_model()));
//! let engine = Engine::start(Arc::clone(&registry), BatchPolicy::default());
//! let response = engine.infer(get_frame(), true).unwrap();
//! // ... meanwhile, a training thread hot-swaps the model:
//! registry.publish(get_model()).unwrap();
//! ```

// Every `unsafe` block argues its soundness and every `unsafe fn` states
// its contract; `scripts/ci.sh`'s clippy step holds the line.
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod batch;
pub mod chaos;
pub mod demo;
pub mod engine;
pub mod registry;
pub mod shard;
pub mod slo;
pub mod stats;
pub mod tenant;
pub mod wire;

pub use batch::{
    BatchPolicy, BatchQueue, Drained, Fidelity, InferRequest, InferResponse, Pending, ServeError,
    Ticket,
};
pub use chaos::ChaosPlan;
pub use engine::Engine;
pub use registry::{ModelRegistry, ModelTable, PublishedModel};
pub use shard::{Fleet, FleetConfig, ShardSet};
pub use slo::{infer_with_retry, Priority, RetryBudget, RetryPolicy, SloPolicy};
pub use stats::{ServeStats, StatsSnapshot};
pub use tenant::{TenantStats, TenantTable};
