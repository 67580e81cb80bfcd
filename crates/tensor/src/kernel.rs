//! Kernel-launch accounting.
//!
//! The paper's Figure 7(b) measures *the number of CUDA kernels launched*
//! per training iteration under four configurations (baseline, Opt1 manual
//! derivatives, Opt2 `torch.compile` fusion, Opt3 custom optimizer
//! kernels). We reproduce that measurement on CPU by treating every
//! primitive tensor operation as one "kernel launch" and letting fused
//! routines register as a single launch.
//!
//! Semantics:
//!
//! * [`launch`] records one launch under a name — unless the calling
//!   thread is inside a [`fused`] scope, in which case the inner
//!   primitives are considered part of the enclosing fused kernel.
//! * [`fused`] records one launch for the whole scope **when fusion is
//!   enabled** (the Opt2 / `torch.compile` analogue, see
//!   [`set_fusion_enabled`]); when fusion is disabled the scope is
//!   transparent and the inner primitives count individually.
//! * Handwritten kernels (the paper's Opt1/Opt3) simply call [`launch`]
//!   once per routine, so they are cheap regardless of the fusion mode.
//!
//! Counting is disabled by default ([`set_counting`]) so the accounting
//! adds no overhead to production training runs. The fused-scope depth is
//! stored in [`dp_pool::taskctx`] rather than a plain thread-local: the
//! pool copies the submitter's context into every worker that executes
//! one of the region's tasks, so primitives running *on pool workers*
//! inside a fused region are still attributed to the enclosing fused
//! kernel instead of being counted individually.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static COUNTING: AtomicBool = AtomicBool::new(false);
static FUSION: AtomicBool = AtomicBool::new(false);
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Lock the counter map. Every update is a single insert, increment or
/// clear, so a panic while the lock is held cannot leave the map
/// half-updated and poisoning is ignored.
fn counts_map() -> MutexGuard<'static, BTreeMap<&'static str, u64>> {
    COUNTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enable or disable kernel-launch counting globally.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Returns whether counting is currently enabled.
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Enable or disable the fusion mode (the `torch.compile` analogue):
/// when enabled, [`fused`] scopes collapse to a single launch.
pub fn set_fusion_enabled(on: bool) {
    FUSION.store(on, Ordering::SeqCst);
}

/// Returns whether fusion mode is enabled.
pub fn fusion_enabled() -> bool {
    FUSION.load(Ordering::Relaxed)
}

/// Record one kernel launch under `name`.
///
/// No-op when counting is disabled or when inside a [`fused`] scope.
#[inline]
pub fn launch(name: &'static str) {
    if !counting() {
        return;
    }
    if dp_pool::taskctx::get() > 0 {
        return;
    }
    *counts_map().entry(name).or_insert(0) += 1;
}

/// Run `f` as a fused kernel region.
///
/// With fusion enabled this registers exactly one launch named `name` and
/// suppresses the launches of the primitives executed inside; with fusion
/// disabled it is fully transparent.
pub fn fused<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !counting() || !fusion_enabled() {
        return f();
    }
    launch(name);
    dp_pool::taskctx::set(dp_pool::taskctx::get() + 1);
    let guard = FusedGuard;
    let out = f();
    drop(guard);
    out
}

struct FusedGuard;

impl Drop for FusedGuard {
    fn drop(&mut self) {
        dp_pool::taskctx::set(dp_pool::taskctx::get().saturating_sub(1));
    }
}

/// Reset all counters to zero.
pub fn reset() {
    counts_map().clear();
}

/// Snapshot of the per-kernel launch counts.
pub fn counts() -> BTreeMap<&'static str, u64> {
    counts_map().clone()
}

/// Total number of launches across all kernels.
pub fn total_launches() -> u64 {
    counts_map().values().sum()
}

/// Convenience: run `f` with counting enabled and return `(result, total
/// launches recorded during f)`. Restores the previous counting state and
/// does not reset pre-existing counters.
pub fn count_region<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let was = counting();
    set_counting(true);
    let before = total_launches();
    let out = f();
    let after = total_launches();
    set_counting(was);
    (out, after - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The kernel counters are process-global; serialize the tests that
    // manipulate them.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn with_clean_state(f: impl FnOnce()) {
        let _g = LOCK.lock().unwrap();
        reset();
        set_counting(true);
        set_fusion_enabled(false);
        f();
        set_counting(false);
        set_fusion_enabled(false);
        reset();
    }

    #[test]
    fn launches_are_counted_when_enabled() {
        with_clean_state(|| {
            launch("gemm");
            launch("gemm");
            launch("tanh");
            assert_eq!(counts().get("gemm"), Some(&2));
            assert_eq!(counts().get("tanh"), Some(&1));
            assert_eq!(total_launches(), 3);
        });
    }

    #[test]
    fn launches_ignored_when_disabled() {
        let _g = LOCK.lock().unwrap();
        reset();
        set_counting(false);
        launch("gemm");
        assert_eq!(total_launches(), 0);
    }

    #[test]
    fn fusion_collapses_inner_launches() {
        with_clean_state(|| {
            set_fusion_enabled(true);
            fused("fused_block", || {
                launch("gemm");
                launch("tanh");
                launch("add");
            });
            assert_eq!(total_launches(), 1);
            assert_eq!(counts().get("fused_block"), Some(&1));
        });
    }

    #[test]
    fn fusion_disabled_is_transparent() {
        with_clean_state(|| {
            fused("fused_block", || {
                launch("gemm");
                launch("tanh");
            });
            assert_eq!(total_launches(), 2);
            assert!(!counts().contains_key("fused_block"));
        });
    }

    #[test]
    fn nested_fused_scopes_count_once() {
        with_clean_state(|| {
            set_fusion_enabled(true);
            fused("outer", || {
                fused("inner", || {
                    launch("gemm");
                });
                launch("tanh");
            });
            assert_eq!(total_launches(), 1);
        });
    }

    #[test]
    fn count_region_reports_delta() {
        with_clean_state(|| {
            launch("warmup");
            let ((), n) = count_region(|| {
                launch("a");
                launch("b");
            });
            assert_eq!(n, 2);
        });
    }

    #[test]
    fn reset_clears_counters() {
        with_clean_state(|| {
            launch("gemm");
            reset();
            assert_eq!(total_launches(), 0);
        });
    }
}
