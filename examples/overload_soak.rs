//! Chaos-tested overload soak for the serving + online-learning loop —
//! the executable claim of DESIGN §12.
//!
//! Open-loop clients submit at seeded heavy-tailed arrival times (they
//! do *not* wait for responses before the next arrival, so bursts pile
//! up the way real MD drivers do), against a bounded two-lane queue
//! under a full `SloPolicy`. Mid-run, a seeded `ChaosPlan` injects
//! dispatcher stalls, poisoned requests and slow clients, while a
//! publisher thread — standing in for `dp_train::online::run_published`
//! — hot-swaps models and occasionally publishes corrupted bytes (must
//! be rejected by `model_io`, registry stays last-good) or non-finite
//! weights (pass validation, fail evaluation — the circuit breaker's
//! job). A closed-loop client exercises `infer_with_retry` under a
//! shared retry budget the whole time.
//!
//! The soak then *asserts* the fault model, not just survives it:
//!
//! 1. no hang — every accepted ticket resolves within a generous bound;
//! 2. no unbounded queue — observed depth never exceeds capacity;
//! 3. every request resolved — accepted + rejected = submitted, and
//!    each outcome is typed (ok / degraded / overloaded / deadline /
//!    eval-failed / closed), nothing silent;
//! 4. shed fraction and end-to-end p999 stay within policy;
//! 5. after all chaos the engine still serves finite responses (the
//!    breaker routed around any poisoned snapshot).
//!
//! Run with:
//! ```text
//! cargo run --release --example overload_soak -- --profile quick --seed 1234
//! ```

use dp_serve::demo::{demo_frame, demo_model};
use dp_serve::{infer_with_retry, RetryBudget, RetryPolicy, Ticket};
use fekf_deepmd::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Ticket resolution bound. Reaching it means a stranded ticket — the
/// exact hang class this soak exists to catch.
const HANG: Duration = Duration::from_secs(60);
/// Policy bounds the soak asserts (generous: they catch collapse, not
/// jitter — a shed storm or a stuck dispatcher, not a slow CI box).
const MAX_SHED_FRACTION: f64 = 0.9;
const MAX_P999: Duration = Duration::from_secs(5);

struct Opts {
    quick: bool,
    seed: u64,
}

fn parse_opts() -> Opts {
    let mut o = Opts { quick: false, seed: 1234 };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "--profile" {
            match args.next().as_deref() {
                Some("quick") => o.quick = true,
                Some("full") => o.quick = false,
                p => {
                    eprintln!("error: --profile wants quick|full, got {p:?}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--seed" {
            o.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: --seed wants an integer");
                std::process::exit(2);
            });
        } else if arg == "--help" || arg == "-h" {
            eprintln!("flags: --profile quick|full  --seed N");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag '{arg}' (try --help)");
            std::process::exit(2);
        }
    }
    o
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in (0, 1] from a splitmix draw.
fn unit(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Seeded heavy-tailed inter-arrival gap: bounded Pareto around
/// `base_us` — mostly short gaps with long bursts-then-lulls. With
/// tail exponent 0.8 the mean is ≈ 5 × `base_us` (cap ignored).
fn arrival_gap(state: &mut u64, base_us: f64) -> Duration {
    let u = unit(state);
    let micros = (base_us * u.powf(-0.8)).min(base_us * 100.0);
    Duration::from_micros(micros as u64)
}

#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    degraded: AtomicU64,
    overloaded: AtomicU64,
    deadline: AtomicU64,
    eval_failed: AtomicU64,
    closed: AtomicU64,
    rejected: AtomicU64,
}

impl Outcomes {
    fn resolved(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
            + self.degraded.load(Ordering::Relaxed)
            + self.overloaded.load(Ordering::Relaxed)
            + self.deadline.load(Ordering::Relaxed)
            + self.eval_failed.load(Ordering::Relaxed)
            + self.closed.load(Ordering::Relaxed)
    }

    fn tally(&self, result: Result<InferResponse, ServeError>) {
        match result {
            Ok(r) if r.degraded => self.degraded.fetch_add(1, Ordering::Relaxed),
            Ok(_) => self.ok.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Overloaded { .. }) => self.overloaded.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::DeadlineExceeded { .. }) => self.deadline.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::EvalFailed(_)) => self.eval_failed.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Closed) => self.closed.fetch_add(1, Ordering::Relaxed),
            Err(
                e @ (ServeError::BadRequest(_)
                | ServeError::UnknownModel { .. }
                | ServeError::SnapshotPruned { .. }),
            ) => panic!("soak sends no bad/unknown/pruned requests: {e}"),
        };
    }
}

fn main() {
    let opts = parse_opts();
    let (clients, per_client, publishes, retry_requests) =
        if opts.quick { (4usize, 100usize, 12u64, 40usize) } else { (6, 500, 40, 200) };
    let seed = opts.seed;
    println!(
        "overload soak: seed {seed}, profile {}, {clients} open-loop clients x {per_client} \
         requests + {retry_requests} retry-client requests, {publishes} publishes",
        if opts.quick { "quick" } else { "full" }
    );

    let slo = SloPolicy {
        batch: BatchPolicy { max_batch: 8, max_wait: Duration::from_micros(500) },
        queue_capacity: 64,
        degrade_above: 32,
        degrade_after: 3,
        resume_below: 8,
        resume_after: 3,
        ..SloPolicy::default()
    };
    let chaos = ChaosPlan {
        seed,
        stall_prob: 0.02,
        stall: Duration::from_millis(3),
        poison_prob: 0.01,
        slow_client_prob: 0.05,
        slow_client: Duration::from_millis(1),
        corrupt_publish_prob: 0.25,
        poison_publish_prob: 0.25,
    };
    let registry = Arc::new(ModelRegistry::new(demo_model(seed)));
    let engine = Engine::start_chaos(Arc::clone(&registry), slo, chaos.clone());
    let frames: Vec<_> = (0..32).map(|i| demo_frame(seed.wrapping_add(i))).collect();

    // Calibrate the open-loop arrival rate against this machine's
    // measured batched throughput, so the soak oversubscribes the
    // engine by a fixed factor (~2.5×) instead of by whatever ratio a
    // fast or slow CI box happens to produce. The warmup also fills
    // the queue to capacity once, exercising degradation on the way.
    let warm = slo.queue_capacity;
    let warm_t0 = Instant::now();
    let warm_tickets: Vec<_> = (0..warm)
        .map(|i| {
            engine
                .submit(InferRequest::new(frames[i % frames.len()].clone(), true))
                .expect("warmup fits exactly in the queue")
        })
        .collect();
    for t in warm_tickets {
        // Chaos is already live: a warmup request may be poisoned or
        // shed. Only the elapsed time matters here.
        let _ = t.wait();
    }
    let per_req_us = warm_t0.elapsed().as_secs_f64() * 1e6 / warm as f64;
    // Mean per-client gap = clients × per_req / oversubscription; the
    // Pareto base is mean/5 (tail exponent 0.8). Floor keeps the
    // scheduler meaningful on very fast machines.
    let base_us = (clients as f64 * per_req_us / 2.5 / 5.0).max(10.0);
    println!("calibration: {per_req_us:.0} µs/request batched, arrival base {base_us:.0} µs");

    let outcomes = Arc::new(Outcomes::default());
    let barrier = Arc::new(Barrier::new(clients + 2));

    // Publisher: the online loop's stand-in. Hot-swaps mid-run; some
    // publishes are corrupted in flight (rejected before serving),
    // some carry non-finite weights (the breaker's problem).
    let publisher = {
        let registry = Arc::clone(&registry);
        let chaos = chaos.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            let (mut corrupted, mut poisoned, mut clean) = (0u64, 0u64, 0u64);
            for stage in 0..publishes {
                std::thread::sleep(Duration::from_millis(4));
                let mut model = demo_model(seed.wrapping_add(1000 + stage));
                if chaos.corrupts_publish(stage) {
                    let mut bytes = deepmd_core::model_io::to_bytes(&model);
                    chaos.corrupt_bytes(&mut bytes, stage);
                    let before = registry.current_version();
                    let err = registry
                        .publish_bytes(&bytes)
                        .expect_err("corrupt bytes must be rejected by model_io");
                    assert!(
                        registry.current_version() == before,
                        "a rejected publish must not swap: {err}"
                    );
                    corrupted += 1;
                } else if chaos.poisons_publish(stage) {
                    let n = model.get_params().len();
                    model.set_params(&vec![f64::NAN; n]);
                    registry.publish(model).expect("NaN weights pass config validation");
                    poisoned += 1;
                } else {
                    registry.publish(model).expect("clean publish");
                    clean += 1;
                }
            }
            (corrupted, poisoned, clean)
        })
    };

    // Open-loop clients: arrivals follow the seeded schedule, not the
    // responses. Tickets are collected and resolved after the burst —
    // a stranded one fails the soak, not just slows it.
    let submitters: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let chaos = chaos.clone();
            let frames = frames.clone();
            let outcomes = Arc::clone(&outcomes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = seed.wrapping_mul(0x517C_C1B7_2722_0A95) ^ (c as u64) << 32;
                barrier.wait();
                let mut tickets: Vec<Ticket> = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    std::thread::sleep(arrival_gap(&mut rng, base_us));
                    if let Some(pause) = chaos.client_pause(c as u64, i as u64) {
                        std::thread::sleep(pause);
                    }
                    let frame = frames[(splitmix(&mut rng) as usize) % frames.len()].clone();
                    let roll = splitmix(&mut rng) % 100;
                    // 70 % interactive MD steps with a deadline, 30 %
                    // bulk relabeling (shed first under overload).
                    let req = if roll < 70 {
                        InferRequest::new(frame, true).with_deadline(Duration::from_millis(100))
                    } else {
                        InferRequest::new(frame, false).bulk()
                    };
                    match engine.submit(req) {
                        Ok(t) => tickets.push(t),
                        Err(ServeError::Overloaded { depth, capacity }) => {
                            assert!(depth >= capacity, "rejection implies a full queue");
                            outcomes.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                let accepted = tickets.len() as u64;
                for t in tickets {
                    match t.wait_timeout(HANG) {
                        Some(result) => outcomes.tally(result),
                        None => panic!("client {c}: ticket stranded past {HANG:?}"),
                    }
                }
                accepted
            })
        })
        .collect();

    // Closed-loop retry client: capped exponential backoff on
    // Overloaded, bounded by a shared token-bucket budget.
    let retry_client = {
        let engine = Arc::clone(&engine);
        let outcomes = Arc::clone(&outcomes);
        let barrier = Arc::clone(&barrier);
        let frames = frames.clone();
        std::thread::spawn(move || {
            let budget = RetryBudget::new(16, 0.1);
            let policy = RetryPolicy::default();
            let mut rng = seed ^ 0xBEEF;
            barrier.wait();
            let mut final_overloads = 0u64;
            for _ in 0..retry_requests {
                let frame = frames[(splitmix(&mut rng) as usize) % frames.len()].clone();
                match infer_with_retry(&engine, InferRequest::new(frame, true), &policy, &budget) {
                    Ok(r) => outcomes.tally(Ok(r)),
                    Err(e @ ServeError::Overloaded { .. }) => {
                        // Retries exhausted or budget empty: typed, final.
                        final_overloads += 1;
                        outcomes.tally(Err(e));
                    }
                    Err(e) => outcomes.tally(Err(e)),
                }
            }
            final_overloads
        })
    };

    let accepted_open: u64 = submitters.into_iter().map(|s| s.join().expect("client")).sum();
    let final_overloads = retry_client.join().expect("retry client");
    let (corrupted, poisoned, clean) = publisher.join().expect("publisher");

    // Assertion 5: after all chaos the engine still serves finite
    // numbers. If the last publish was poisoned, the first few probes
    // feed the breaker until it routes to last-good.
    let mut recovered = false;
    for i in 0..(slo.breaker_threshold as u64 + 4) {
        match engine.infer(demo_frame(seed.wrapping_add(5000 + i)), true) {
            Ok(r) => {
                assert!(r.energy.is_finite());
                recovered = true;
                break;
            }
            Err(ServeError::EvalFailed(_)) => continue, // feeds the breaker
            Err(e) => panic!("post-chaos probe failed: {e}"),
        }
    }
    assert!(recovered, "breaker failed to route around the poisoned snapshot");

    let stats = engine.stats();
    let submitted_open = (clients * per_client) as u64;
    let rejected = outcomes.rejected.load(Ordering::Relaxed);

    // Assertion 3: nothing vanished. Open-loop: accepted + rejected =
    // submitted, every accepted ticket resolved (assertion 1 is the
    // HANG panic inside the clients).
    assert_eq!(accepted_open + rejected, submitted_open, "requests must not vanish");
    assert_eq!(
        outcomes.resolved(),
        accepted_open + retry_requests as u64,
        "every accepted request resolves with exactly one typed outcome"
    );
    // Assertion 2: the queue never grew past its bound.
    assert!(
        stats.max_depth <= slo.queue_capacity as u64,
        "queue depth {} exceeded capacity {}",
        stats.max_depth,
        slo.queue_capacity
    );
    // Assertion 4: shed fraction and p999 within policy.
    let shed_fraction =
        (stats.shed + stats.deadline_miss) as f64 / (submitted_open + retry_requests as u64) as f64;
    assert!(
        shed_fraction <= MAX_SHED_FRACTION,
        "shed fraction {shed_fraction:.3} above policy {MAX_SHED_FRACTION}"
    );
    let p999 = stats.latency_p999_ns.unwrap_or(0.0);
    assert!(
        p999 <= MAX_P999.as_nanos() as f64,
        "p999 {:.1} ms above policy {:?}",
        p999 / 1e6,
        MAX_P999
    );

    println!("publishes: {clean} clean, {corrupted} corrupted-and-rejected, {poisoned} poisoned");
    println!(
        "outcomes: {} ok, {} degraded, {} overloaded ({} rejected at admission, {} final after \
         retries), {} deadline-shed, {} eval-failed, {} closed",
        outcomes.ok.load(Ordering::Relaxed),
        outcomes.degraded.load(Ordering::Relaxed),
        outcomes.overloaded.load(Ordering::Relaxed),
        rejected,
        final_overloads,
        outcomes.deadline.load(Ordering::Relaxed),
        outcomes.eval_failed.load(Ordering::Relaxed),
        outcomes.closed.load(Ordering::Relaxed),
    );
    println!(
        "slo: max depth {}/{}, shed fraction {:.3}, p999 {:.2} ms, {} breaker trip(s), {} swaps",
        stats.max_depth,
        slo.queue_capacity,
        shed_fraction,
        p999 / 1e6,
        stats.breaker_trips,
        stats.swaps
    );

    engine.shutdown();

    println!("overload soak PASSED (seed {seed})");
}
