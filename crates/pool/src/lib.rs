//! dp-pool — the workspace's one parallel runtime: a deterministic
//! work-sharing thread pool ([`parallel_for`]) and the three slice
//! helpers every parallel loop in the workspace is written with
//! ([`for_each_chunk_mut`], [`map_collect`], [`map_reduce`]).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The training runtime guarantees bitwise-identical
//!    weights and checkpoints for any thread count (PR 1's
//!    checkpoint/resume contract). The pool therefore never decides *what*
//!    is computed — only *where*. Callers submit a fixed number of indexed
//!    tasks; each task's work is a pure function of its index, and any
//!    cross-task combination is performed by the caller in index order.
//!    Which worker executes which index is a scheduling detail that cannot
//!    affect results.
//! 2. **Zero steady-state allocation.** One fork-join region performs no
//!    heap allocation: the job descriptor lives on the caller's stack,
//!    workers are woken through a pre-existing mutex/condvar pair, and
//!    indices are claimed with a single `fetch_add`. This keeps the pool
//!    usable inside the FEKF `P·g` / `P`-update hot path, which is
//!    asserted allocation-free.
//! 3. **Long-lived workers.** Threads are spawned once (lazily) and parked
//!    on a condvar between regions; `DP_POOL_THREADS` (or
//!    [`set_threads`]) controls the worker count, and resizing is safe at
//!    any quiescent point.
//!
//! Nested regions (a task submitting another region) run inline on the
//! submitting worker: the inner region computes with the same fixed block
//! structure, so inlining is invisible to results. The pool publishes one
//! region at a time; a thread that submits while another thread's region
//! is published runs its own region on itself, for the same reason.

// Every `unsafe` block argues its soundness and every `unsafe fn` states
// its contract; `scripts/ci.sh`'s clippy step holds the line.
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Per-task execution context propagated from the submitting thread to
/// every worker that runs one of the region's tasks.
///
/// Two independent slots live here:
///
/// * the tensor layer's fused-kernel scope depth ([`get`]/[`set`]), so
///   that primitives executed *on pool workers* inside a `kernel::fused`
///   region are attributed to the enclosing fused kernel instead of being
///   counted individually (they would otherwise see a fresh thread-local
///   depth of zero on the worker thread);
/// * the compute-backend token ([`backend`]/[`set_backend`]), so that
///   kernels running on pool workers dispatch to the *same* SIMD backend
///   as the submitting thread — a scoped `with_backend` override (e.g.
///   the dp-verify scalar oracle) must cover the worker halves of a
///   region too, not just the submitter's share. Token 0 means "no
///   override, use the process-global backend"; nonzero values are
///   interpreted by the tensor layer.
pub mod taskctx {
    use std::cell::Cell;

    thread_local! {
        static CTX: Cell<u64> = const { Cell::new(0) };
        static BACKEND: Cell<u8> = const { Cell::new(0) };
    }

    /// Snapshot of both context slots, as captured into a region's job
    /// descriptor and restored on each worker for the region's duration.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct Ctx {
        /// Fused-kernel scope depth.
        pub fused: u64,
        /// Compute-backend token (0 = process-global default).
        pub backend: u8,
    }

    /// Current fused-scope depth on this thread.
    pub fn get() -> u64 {
        CTX.with(|c| c.get())
    }

    /// Set the fused-scope depth on this thread.
    pub fn set(v: u64) {
        CTX.with(|c| c.set(v));
    }

    /// Current backend token on this thread.
    pub fn backend() -> u8 {
        BACKEND.with(|c| c.get())
    }

    /// Set the backend token on this thread.
    pub fn set_backend(b: u8) {
        BACKEND.with(|c| c.set(b));
    }

    /// Capture both slots.
    pub fn snapshot() -> Ctx {
        Ctx { fused: get(), backend: backend() }
    }

    /// Restore both slots from a snapshot.
    pub fn restore(ctx: Ctx) {
        set(ctx.fused);
        set_backend(ctx.backend);
    }
}

thread_local! {
    /// True while this thread is executing pool tasks — nested regions
    /// detect this and run inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One fork-join region: `n` indexed tasks over a borrowed closure.
///
/// Lives on the submitting thread's stack for the duration of the region;
/// `active` counts executors currently holding a reference to it, and the
/// submitter only returns once `active == 0` and all indices are claimed.
struct Job {
    /// The task body with its lifetime erased. Valid exactly while the
    /// owning [`run_region`] frame is blocked, which `active` enforces.
    func: *const (dyn Fn(usize) + Sync),
    /// Number of tasks.
    n: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Executors (workers + submitter) currently inside the task loop.
    active: AtomicUsize,
    /// Task context captured from the submitting thread.
    ctx: taskctx::Ctx,
    /// Set when any task panicked; the submitter re-panics.
    panicked: AtomicBool,
}

/// Raw pointer to a stack-pinned [`Job`], sendable to workers.
#[derive(Clone, Copy)]
struct JobPtr(*const Job);
// SAFETY: the Job is pinned on the submitter's stack until every executor
// has dropped out of `active`; the pointer is only dereferenced by
// executors registered in `active` under the pool lock. `Job`'s fields
// are atomics, a `Copy` context and a pointer to a `Sync` closure, so
// the workers may hold it.
unsafe impl Send for JobPtr {}
// SAFETY: as for `Send` — a shared `JobPtr` gives out nothing but the
// same `&Job`, which is only ever read through its atomics.
unsafe impl Sync for JobPtr {}

struct PoolState {
    /// The currently published region, if any.
    job: Option<JobPtr>,
    /// Monotonic region counter; a worker runs each region at most once.
    seq: u64,
    /// Worker generation; workers from older generations exit.
    generation: u64,
    /// Total desired concurrency (workers + submitting thread).
    target_threads: usize,
    /// Live worker threads of the current generation.
    workers_alive: usize,
    /// Workers of older generations that have not exited yet.
    retiring: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between regions.
    work_cv: Condvar,
    /// Submitters (and `set_threads`) wait here for completion/exit.
    done_cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            seq: 0,
            generation: 0,
            target_threads: default_threads(),
            workers_alive: 0,
            retiring: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

/// The startup thread count: `DP_POOL_THREADS` if set (clamped to ≥ 1),
/// else the machine's available parallelism.
fn default_threads() -> usize {
    match std::env::var("DP_POOL_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Current total concurrency (workers + the submitting thread).
pub fn current_threads() -> usize {
    pool().state.lock().unwrap_or_else(|e| e.into_inner()).target_threads
}

/// Reconfigure the pool to `n` total threads (clamped to ≥ 1).
///
/// Existing workers are retired and fresh ones spawned lazily on the next
/// region. Safe to call at any quiescent point (no region in flight on
/// this thread), also while other threads submit regions: it waits only
/// for the workers it retired, never for the new generation a concurrent
/// region may already have spawned. Benchmark and determinism-test
/// harnesses use this to sweep thread counts inside one process.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    let p = pool();
    let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
    if st.target_threads == n && st.workers_alive == n.saturating_sub(1) {
        return;
    }
    st.target_threads = n;
    st.generation += 1;
    st.retiring += std::mem::take(&mut st.workers_alive);
    p.work_cv.notify_all();
    // Wait for retired workers to exit so thread counts never stack up.
    while st.retiring > 0 {
        st = p.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Ensure the worker complement for the current generation exists.
/// Called with the state lock held; spawning drops and re-takes it.
fn ensure_workers(p: &'static Pool, st: &mut PoolState) {
    let want = st.target_threads.saturating_sub(1);
    while st.workers_alive < want {
        st.workers_alive += 1;
        let gen = st.generation;
        std::thread::Builder::new()
            .name(format!("dp-pool-{}", st.workers_alive))
            .spawn(move || worker_loop(p, gen))
            .expect("dp-pool: failed to spawn worker");
    }
}

fn worker_loop(p: &'static Pool, my_gen: u64) {
    IN_WORKER.with(|w| w.set(true));
    let mut last_seq = 0u64;
    loop {
        // Wait for a fresh region or retirement.
        let (ptr, seq) = {
            let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.generation != my_gen {
                    st.retiring -= 1;
                    p.done_cv.notify_all();
                    return;
                }
                if let Some(ptr) = st.job {
                    if st.seq != last_seq {
                        // Register as an executor before releasing the
                        // lock: the submitter cannot retire the job while
                        // `active` is non-zero.
                        // SAFETY: `st.job` is only Some while the owning
                        // submitter is blocked in run_region.
                        unsafe { (*ptr.0).active.fetch_add(1, Ordering::AcqRel) };
                        break (ptr, st.seq);
                    }
                }
                st = p.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        last_seq = seq;
        // SAFETY: registered in `active`; the Job outlives this block.
        let job = unsafe { &*ptr.0 };
        taskctx::restore(job.ctx);
        run_tasks(job);
        taskctx::restore(taskctx::Ctx::default());
        // Deregister and wake the submitter. The lock round-trip orders
        // the decrement against the submitter's condvar wait.
        let _st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        job.active.fetch_sub(1, Ordering::AcqRel);
        p.done_cv.notify_all();
    }
}

/// Claim-and-run loop shared by workers and the submitting thread.
fn run_tasks(job: &Job) {
    // SAFETY: `func` is valid while the submitter is blocked, which
    // `active` registration guarantees for every caller of this fn.
    let f = unsafe { &*job.func };
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            break;
        }
        if panic::catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            job.panicked.store(true, Ordering::Release);
        }
    }
}

/// Run `body(i)` for every `i in 0..n`, distributing indices over the
/// pool. Blocks until all tasks completed.
///
/// Guarantees:
/// * every index runs exactly once;
/// * tasks with disjoint effects make the region's outcome independent of
///   the thread count and of index-to-worker assignment;
/// * no heap allocation in the submission or execution path;
/// * the submitting thread participates, so progress never depends on
///   workers existing;
/// * nested invocations from inside a task run inline (sequentially), and
///   so does a region submitted while another thread's region holds the
///   pool — a published job is never overwritten or retired by anyone
///   but its submitter.
///
/// Panics in any task are re-raised on the submitting thread after the
/// region completes.
pub fn parallel_for(n: usize, body: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let inline = n == 1 || IN_WORKER.with(|w| w.get());
    if !inline {
        let p = pool();
        {
            let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.target_threads > 1 && st.job.is_none() {
                ensure_workers(p, &mut st);
                return run_region(p, st, n, body);
            }
        }
    }
    // Sequential path: same indices, same order-insensitive contract.
    let mut panicked = false;
    for i in 0..n {
        if panic::catch_unwind(AssertUnwindSafe(|| body(i))).is_err() {
            panicked = true;
        }
    }
    if panicked {
        panic!("dp-pool: task panicked");
    }
}

fn run_region(
    p: &'static Pool,
    mut st: std::sync::MutexGuard<'_, PoolState>,
    n: usize,
    body: &(dyn Fn(usize) + Sync),
) {
    // Erase the borrow lifetime: the Job (and `body`) outlive the region
    // because this frame blocks until `active == 0` below.
    // SAFETY: same fat-pointer layout; only the lifetime is widened, and
    // no executor dereferences it after this frame returns.
    let func: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
            body,
        )
    };
    let job = Job {
        func,
        n,
        next: AtomicUsize::new(0),
        active: AtomicUsize::new(0),
        ctx: taskctx::snapshot(),
        panicked: AtomicBool::new(false),
    };
    st.seq = st.seq.wrapping_add(1);
    st.job = Some(JobPtr(&job));
    p.work_cv.notify_all();
    drop(st);

    // The submitter is an executor too (not tracked in `active`; its
    // participation is synchronous).
    run_tasks(&job);

    // Wait for workers still inside the task loop, then retire the job.
    let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
    while job.active.load(Ordering::Acquire) != 0 {
        st = p.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    debug_assert!(
        st.job.is_some_and(|j| std::ptr::eq(j.0, &job)),
        "the published job must still be this region's"
    );
    st.job = None;
    drop(st);

    if job.panicked.load(Ordering::Acquire) {
        panic!("dp-pool: task panicked");
    }
}

/// Most tasks a slice helper splits one region into. Fixed, so block
/// boundaries — and with them every floating-point combination order
/// in [`map_reduce`] — are a function of the item count alone, never of
/// the thread count. 64 keeps dispatch overhead negligible while any
/// plausible worker count still load-balances (blocks are handed out
/// dynamically).
const MAX_BLOCKS: usize = 64;

/// Items per block for a region of `len` items: `ceil(len / 64)`, at
/// least 1. Block `b` covers `[b·block_len, min((b+1)·block_len, len))`.
fn block_len(len: usize) -> usize {
    len.div_ceil(MAX_BLOCKS).max(1)
}

/// Run `body(i, chunk_i)` for every `chunk`-long piece of `data` (the
/// last may be shorter), distributing blocks of consecutive chunks
/// over the pool. Blocks until all chunks are done.
///
/// Each task gets exclusive `&mut` access to its own chunks — the
/// row-parallel building block of the GEMM family and the fused `P`
/// update. All [`parallel_for`] guarantees carry over: nothing is
/// allocated, and the outcome is independent of the thread count
/// whenever the per-chunk effects are disjoint.
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk > 0, "for_each_chunk_mut: chunk size must be positive");
    struct Base<T>(*mut T);
    // SAFETY: the pointer is only dereferenced over disjoint ranges by
    // distinct tasks (exactly-once index claim), and `T: Send` lets the
    // resulting `&mut [T]` cross threads.
    unsafe impl<T: Send> Sync for Base<T> {}
    let base = Base(data.as_mut_ptr());
    // Capture the Sync wrapper itself, not its raw-pointer field
    // (edition-2021 closures capture field paths).
    let base = &base;
    let len = data.len();
    let n_chunks = len.div_ceil(chunk);
    let bl = block_len(n_chunks);
    parallel_for(n_chunks.div_ceil(bl), &|b| {
        for i in b * bl..((b + 1) * bl).min(n_chunks) {
            let start = i * chunk;
            let end = (start + chunk).min(len);
            // SAFETY: block `b` is claimed exactly once per region and
            // owns chunks `[b·bl, (b+1)·bl)`, so no two tasks alias
            // `[start, end)`, which lies inside `data`; the slice
            // outlives the region because `parallel_for` blocks until
            // completion.
            let piece = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            body(i, piece);
        }
    });
}

/// [`for_each_chunk_mut`] over two slices in step: `body(i, a_i, b_i)`
/// gets chunk `i` of `a` (`ca` long) and chunk `i` of `b` (`cb` long),
/// e.g. one row of a matrix and the one output that row produces.
///
/// # Panics
/// Panics if a chunk size is zero or the slices split into different
/// numbers of chunks.
pub fn for_each_chunk_pair_mut<T: Send, U: Send>(
    a: &mut [T],
    ca: usize,
    b: &mut [U],
    cb: usize,
    body: impl Fn(usize, &mut [T], &mut [U]) + Sync,
) {
    assert!(ca > 0 && cb > 0, "for_each_chunk_pair_mut: chunk sizes must be positive");
    assert_eq!(
        a.len().div_ceil(ca),
        b.len().div_ceil(cb),
        "for_each_chunk_pair_mut: the slices have different chunk counts"
    );
    struct Base<U>(*mut U);
    // SAFETY: as in `for_each_chunk_mut` — tasks dereference the
    // pointer only over the disjoint chunk ranges below, and `U: Send`
    // lets the resulting `&mut [U]` cross threads.
    unsafe impl<U: Send> Sync for Base<U> {}
    let base = Base(b.as_mut_ptr());
    let base = &base;
    let len = b.len();
    for_each_chunk_mut(a, ca, |i, piece| {
        let start = i * cb;
        let end = (start + cb).min(len);
        // SAFETY: `for_each_chunk_mut` hands out chunk index `i` exactly
        // once per region and the chunk counts are equal, so
        // `[start, end)` lies inside `b` and no other task aliases it;
        // `b` outlives the region, which blocks until completion.
        let other = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        body(i, piece, other);
    });
}

/// Run `body(i, &mut items[i])` for every element, distributing over
/// the pool: [`for_each_chunk_mut`] with one element per chunk. The
/// per-domain building block of `dp-domain` — a 3D grid of domain
/// states is advanced in place without interior mutability or cloning.
pub fn parallel_for_each_mut<T: Send>(items: &mut [T], body: &(dyn Fn(usize, &mut T) + Sync)) {
    for_each_chunk_mut(items, 1, |i, item| body(i, &mut item[0]));
}

/// `items.iter().map(f).collect::<Vec<_>>()` with the calls distributed
/// over the pool; the output keeps index order.
pub fn map_collect<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    for_each_chunk_mut(&mut out, 1, |i, slot| slot[0] = Some(f(&items[i])));
    out.into_iter().map(|r| r.expect("every index runs exactly once")).collect()
}

/// Ordered block reduction of `map(item)` under `op`.
///
/// The items are cut into at most 64 blocks of `ceil(len / 64)`
/// consecutive items; each block is a left fold from `identity()` in
/// index order (one pool task per block), and the block partials are
/// combined in block order, again from `identity()`, on the submitting
/// thread. The grouping is fixed by `items.len()`, so a floating-point
/// result is bit-identical at every thread count — which is also why
/// this is *not* interchangeable with a work-stealing `reduce`, whose
/// grouping is decided at run time. An empty input yields `identity()`.
pub fn map_reduce<T: Sync, R: Send>(
    items: &[T],
    identity: impl Fn() -> R + Sync,
    map: impl Fn(&T) -> R + Sync,
    op: impl Fn(R, R) -> R + Sync,
) -> R {
    let blocks: Vec<&[T]> = items.chunks(block_len(items.len())).collect();
    let partials =
        map_collect(&blocks, |block| block.iter().fold(identity(), |acc, x| op(acc, map(x))));
    partials.into_iter().fold(identity(), &op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    // The pool is process-global; serialize tests that resize it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn every_index_runs_exactly_once() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let n = 257;
        let run = |threads: usize| -> Vec<f64> {
            set_threads(threads);
            let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, &|i| {
                let v = (i as f64 * 0.37).sin() * (i as f64 + 1.0).ln();
                out[i].store(v.to_bits(), Ordering::Relaxed);
            });
            out.iter()
                .map(|b| f64::from_bits(b.load(Ordering::Relaxed)))
                .collect()
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.to_bits(), y.to_bits());
            assert_eq!(x.to_bits(), z.to_bits());
        }
    }

    #[test]
    fn for_each_mut_gives_exclusive_disjoint_access() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let mut items: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64; 4]).collect();
        parallel_for_each_mut(&mut items, &|i, item| {
            for (k, v) in item.iter_mut().enumerate() {
                *v = *v * 2.0 + k as f64;
            }
            item.push(i as f64);
        });
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.len(), 5);
            for (k, &v) in item.iter().take(4).enumerate() {
                assert_eq!(v, i as f64 * 2.0 + k as f64);
            }
            assert_eq!(item[4], i as f64);
        }
    }

    #[test]
    fn for_each_mut_identical_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let run = |threads: usize| -> Vec<f64> {
            set_threads(threads);
            let mut items = vec![0.0f64; 257];
            parallel_for_each_mut(&mut items, &|i, v| {
                *v = (i as f64 * 0.37).sin() * (i as f64 + 1.0).ln();
            });
            items
        };
        let a = run(1);
        let b = run(8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The grouping of `map_reduce` made visible: a non-associative
    /// string `op` spells out which operands met in which order.
    #[test]
    fn reduce_blocks_are_ceil_len_over_64_at_any_thread_count() {
        let _g = LOCK.lock().unwrap();
        let op = |a: String, b: String| format!("({a} {b})");
        for len in [0usize, 1, 63, 64, 65, 4097] {
            let items: Vec<usize> = (0..len).collect();
            let expect = items
                .chunks(len.div_ceil(64).max(1))
                .map(|block| block.iter().fold(String::new(), |acc, i| op(acc, i.to_string())))
                .fold(String::new(), op);
            for threads in [1, 2, 8] {
                set_threads(threads);
                let got = map_reduce(&items, String::new, |i| i.to_string(), op);
                assert_eq!(got, expect, "len {len}, {threads} threads");
            }
        }
    }

    /// A sum whose rounding depends on the grouping (magnitudes span
    /// nine decades; the plain left fold ends in ...bf0c), pinned to
    /// the bits the same reduction had through the iterator adapter
    /// layer the call sites used before they moved here, computed at
    /// that commit.
    #[test]
    fn reduce_matches_the_pinned_bits_at_any_thread_count() {
        let _g = LOCK.lock().unwrap();
        let xs: Vec<f64> = (0..1000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                let mag = [1e-3, 1.0, 1e3, 1e6][i % 4];
                (h as f64 / (1u64 << 53) as f64 - 0.5) * mag
            })
            .collect();
        for threads in [1, 2, 8] {
            set_threads(threads);
            let sum = map_reduce(&xs, || 0.0, |&x| x * 1.000000119, |a, b| a + b);
            assert_eq!(sum.to_bits(), 0xc10d_be5e_2a30_bf18, "{threads} threads");
        }
    }

    #[test]
    fn every_chunk_is_visited_exactly_once_with_its_own_range() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let (len, chunk) = (1003, 7);
        let mut data = vec![usize::MAX; len];
        let visits: Vec<AtomicUsize> = (0..len.div_ceil(chunk)).map(|_| AtomicUsize::new(0)).collect();
        for_each_chunk_mut(&mut data, chunk, |i, piece| {
            visits[i].fetch_add(1, Ordering::Relaxed);
            assert_eq!(piece.len(), if i == len / chunk { len % chunk } else { chunk });
            piece.fill(i);
        });
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        assert!(data.iter().enumerate().all(|(j, &v)| v == j / chunk));
    }

    #[test]
    fn collect_keeps_index_order() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let xs: Vec<usize> = (0..1000).collect();
        assert_eq!(map_collect(&xs, |&x| x * 3), (0..1000).map(|x| x * 3).collect::<Vec<_>>());
        assert!(map_collect(&[] as &[usize], |&x| x).is_empty());
    }

    #[test]
    fn helper_task_panic_propagates_to_submitter() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let xs: Vec<usize> = (0..500).collect();
        let r = panic::catch_unwind(|| map_collect(&xs, |&x| assert_ne!(x, 321)));
        assert!(r.is_err(), "panic must reach the submitter");
        let r = panic::catch_unwind(|| {
            map_reduce(&xs, || 0, |&x| if x == 499 { panic!("boom") } else { x }, |a, b| a + b)
        });
        assert!(r.is_err(), "panic must reach the submitter");
        // Pool is still usable afterwards.
        assert_eq!(map_reduce(&xs, || 0, |&x| x, |a, b| a + b), 499 * 500 / 2);
    }

    #[test]
    fn nested_regions_run_inline_and_complete() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let outer = 16;
        let inner = 8;
        let count = AtomicUsize::new(0);
        parallel_for(outer, &|_| {
            parallel_for(inner, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), outer * inner);
    }

    #[test]
    fn task_context_propagates_to_workers() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        taskctx::set(7);
        let seen: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        parallel_for(64, &|i| {
            seen[i].store(taskctx::get(), Ordering::Relaxed);
        });
        taskctx::set(0);
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 7));
    }

    #[test]
    fn backend_token_propagates_to_workers() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        taskctx::set_backend(3);
        let seen: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        parallel_for(64, &|i| {
            seen[i].store(taskctx::backend() as u64, Ordering::Relaxed);
        });
        taskctx::set_backend(0);
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 3));
        // Workers reset to the default token between regions.
        let reset_ok: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(9)).collect();
        parallel_for(64, &|i| {
            reset_ok[i].store(taskctx::backend() as u64, Ordering::Relaxed);
        });
        assert!(reset_ok.iter().all(|s| s.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn resizing_retires_old_workers() {
        let _g = LOCK.lock().unwrap();
        set_threads(8);
        let c = AtomicUsize::new(0);
        parallel_for(100, &|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        set_threads(2);
        parallel_for(100, &|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        set_threads(1);
        parallel_for(100, &|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 300);
        assert_eq!(current_threads(), 1);
    }

    /// Two threads submit at once (two serving shards' dispatchers, say).
    /// The second must neither overwrite the first one's published job
    /// nor, on finishing, retire it.
    #[test]
    fn concurrent_submitters_leave_each_others_job_alone() {
        use std::sync::mpsc;
        let _g = LOCK.lock().unwrap();
        set_threads(2);
        let value = |i: usize| ((i as f64 * 0.37).sin() * (i as f64 + 1.0).ln()).to_bits();
        let (na, nb) = (64, 48);
        let slots = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let (out_a, out_b) = (slots(na), slots(nb));
        let (hits_a, hits_b) = (slots(na), slots(nb));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (b_done_tx, b_done_rx) = mpsc::channel::<()>();
        let (started_tx, b_done_rx) = (StdMutex::new(started_tx), StdMutex::new(b_done_rx));
        let first = AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                parallel_for(na, &|i| {
                    // Whichever task runs first holds region A in flight
                    // until region B has come and gone.
                    if first.swap(false, Ordering::SeqCst) {
                        started_tx.lock().unwrap().send(()).unwrap();
                        b_done_rx.lock().unwrap().recv().unwrap();
                    }
                    hits_a[i].fetch_add(1, Ordering::Relaxed);
                    out_a[i].store(value(i), Ordering::Relaxed);
                });
            });
            started_rx.recv().unwrap();
            let me = std::thread::current().id();
            let strayed = AtomicBool::new(false);
            parallel_for(nb, &|i| {
                strayed.fetch_or(std::thread::current().id() != me, Ordering::Relaxed);
                hits_b[i].fetch_add(1, Ordering::Relaxed);
                out_b[i].store(value(i), Ordering::Relaxed);
            });
            let a_still_published = pool().state.lock().unwrap().job.is_some();
            // Release region A before judging, so a failure fails
            // instead of hanging.
            b_done_tx.send(()).unwrap();
            assert!(!strayed.into_inner(), "a taken pool means run on the submitter");
            assert!(a_still_published, "region B retired region A's job");
        });
        for (out, hits) in [(&out_a, &hits_a), (&out_b, &hits_b)] {
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "every index runs once");
            for (i, o) in out.iter().enumerate() {
                assert_eq!(o.load(Ordering::Relaxed), value(i), "same bits as sequential execution");
            }
        }
        assert!(pool().state.lock().unwrap().job.is_none(), "region A retired its own job");
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let r = panic::catch_unwind(|| {
            parallel_for(32, &|i| {
                if i == 17 {
                    panic!("boom");
                }
            });
        });
        assert!(r.is_err(), "panic must reach the submitter");
        // Pool is still usable afterwards.
        let c = AtomicUsize::new(0);
        parallel_for(8, &|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 8);
    }
}
