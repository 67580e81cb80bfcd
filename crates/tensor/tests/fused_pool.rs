//! Regression test for kernel-launch accounting under real threads.
//!
//! Before the deterministic pool, `fused` scopes were tracked with a plain
//! thread-local depth, so a primitive executed *on a pool worker* inside a
//! fused region would see depth 0 and be counted as its own launch. The
//! fused depth now travels in `dp_pool::taskctx`, which the pool copies
//! into every worker executing one of the region's tasks.

use dp_tensor::kernel;
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn fused_scope_spans_pool_workers() {
    // Own process (integration test binary), so the global counters are
    // ours alone; still force a multithreaded pool explicitly.
    dp_pool::set_threads(4);
    kernel::reset();
    kernel::set_counting(true);
    kernel::set_fusion_enabled(true);

    let n = 10_000;
    let ran = AtomicU64::new(0);
    kernel::fused("fused_parallel_region", || {
        dp_pool::parallel_for(n, &|_| {
            // A primitive launched from whichever thread runs this
            // task — must be attributed to the enclosing fused scope.
            kernel::launch("inner_primitive");
            ran.fetch_add(1, Ordering::Relaxed);
        })
    });

    assert_eq!(ran.load(Ordering::Relaxed), n as u64);
    assert_eq!(
        kernel::total_launches(),
        1,
        "inner primitives on pool workers must collapse into the fused launch; counts: {:?}",
        kernel::counts()
    );
    assert_eq!(kernel::counts().get("fused_parallel_region"), Some(&1));
    assert!(!kernel::counts().contains_key("inner_primitive"));

    // Outside the scope, and after the region, counting is primitive-wise
    // again — the workers' context was reset when the region ended.
    kernel::launch("after");
    dp_pool::parallel_for(n, &|_| kernel::launch("after"));
    assert_eq!(kernel::counts().get("after"), Some(&(1 + n as u64)));

    kernel::set_counting(false);
    kernel::set_fusion_enabled(false);
    kernel::reset();
    dp_pool::set_threads(1);
}
