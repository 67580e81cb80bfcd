//! `online_cu`: Figure 1's loop end to end. The 400/600/800 K copper
//! shards arrive one at a time; each arrival is retrained on with a
//! fixed epoch budget, the serving tiers are fitted from the new
//! weights, the model is published, and the stage ends when a response
//! carries the new version. Beside it one reader sends force requests
//! on a fixed 50 req/s schedule, so training, tier fitting, publishing
//! and serving share the same two cores.

use crate::common::{
    check, finish_trace, repeated_setup, same_bits, sub_seed, Outcome, RunArgs, Work,
};
use crate::metrics::Layers;
use crate::pacer::wait_until;
use crate::recorder::{median, Recorder};
use crate::trace::Tracer;
use deepmd_core::compress::{CompressSpec, CompressedModel};
use deepmd_core::quant::QuantizedModel;
use dp_data::dataset::{Dataset, Snapshot};
use dp_data::generate::GenScale;
use dp_mdsim::systems::PaperSystem;
use dp_optim::fekf::FekfConfig;
use dp_serve::{BatchPolicy, Engine, Fidelity, InferRequest, ModelRegistry};
use dp_train::online::{shards_by_temperature, FidelitySet, OnlineLoop};
use dp_train::recipes::{self, ExperimentSetup, ModelScale};
use dp_train::trainer::{RobustConfig, TrainConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GEN: GenScale = GenScale {
    frames_per_temperature: 14,
    equilibration: 40,
    stride: 4,
};
const STAGES: usize = 3;
/// Per-stage retrain budget: fixed work, no accuracy target, so a
/// stage's time does not depend on where a noisy RMSE curve dips.
const STAGE_EPOCHS: usize = 3;
const BATCH_SIZE: usize = 4;
const READER_RPS: f64 = 50.0;
/// A reader response later than this (from its due time) misses.
const LATENCY_LIMIT: Duration = Duration::from_millis(20);
/// Every this-many-th reader request is pinned to the f64 master and
/// compared bit for bit with `model.predict` afterwards.
const PIN_EVERY: usize = 8;

struct Fixture {
    exp: ExperimentSetup,
    shards: Vec<Dataset>,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Fixture {
    let span = tracer.begin("data.generate", 0);
    let exp = recipes::setup(
        PaperSystem::Cu,
        &GEN,
        ModelScale::Small,
        sub_seed(seed, 0x6f6e_6c69),
    );
    tracer.end(span);
    let shards = shards_by_temperature(&exp.train);
    Fixture { exp, shards }
}

/// One master-pinned response kept for the bitwise check.
struct Pinned {
    frame: usize,
    version: u64,
    energy: f64,
    forces: Vec<dp_mdsim::Vec3>,
}

/// What the reader thread hands back.
struct ReaderLog {
    /// Completion time after the run's window opened and latency from
    /// the due time; a failed request is recorded as `u64::MAX`, which
    /// misses any limit.
    latency: Recorder,
    errors: u64,
    versions_monotone: bool,
    pinned: Vec<Pinned>,
    tracer: Tracer,
    /// The engine's own counters, read when the pass ended.
    stats: Option<dp_serve::StatsSnapshot>,
}

/// Fixed-rate reader: submit, wait, stamp; latency from the due time.
fn reader(
    engine: &Engine,
    frames: &[Snapshot],
    stop: &AtomicBool,
    window: Instant,
    mut tracer: Tracer,
    capacity: usize,
) -> ReaderLog {
    let epoch = Instant::now();
    let gap_ns = (1e9 / READER_RPS) as u64;
    let mut latency = Recorder::with_capacity(capacity);
    let mut pinned = Vec::with_capacity(capacity / PIN_EVERY + 1);
    let (mut errors, mut versions_monotone) = (0u64, true);
    let mut last_version = 0;
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let due_ns = i as u64 * gap_ns;
        wait_until(epoch, due_ns);
        let frame = i % frames.len();
        let pin = i.is_multiple_of(PIN_EVERY);
        let mut req = InferRequest::new(frames[frame].clone(), true);
        if pin {
            req = req.with_fidelity(Fidelity::Master);
        }
        let span = tracer.begin("serve.reader_request", i as u64);
        let result = engine.submit(req).and_then(|ticket| ticket.wait());
        tracer.end(span);
        let late = epoch.elapsed().saturating_sub(Duration::from_nanos(due_ns));
        let at_ns = window.elapsed().as_nanos() as u64;
        latency.record(
            at_ns,
            if result.is_ok() {
                late.as_nanos() as u64
            } else {
                u64::MAX
            },
        );
        match result {
            Ok(resp) => {
                versions_monotone &= resp.version >= last_version;
                last_version = resp.version;
                if pin {
                    if let Some(forces) = resp.forces {
                        pinned.push(Pinned {
                            frame,
                            version: resp.version,
                            energy: resp.energy,
                            forces,
                        });
                    }
                }
            }
            Err(_) => errors += 1,
        }
        i += 1;
    }
    ReaderLog {
        latency,
        errors,
        versions_monotone,
        pinned,
        tracer,
        stats: None,
    }
}

/// Wall-clock marks of one stage, taken in the publish hook.
struct StageMarks {
    arrival: Instant,
    hook_start: Instant,
    compressed: Instant,
    quantized: Instant,
    published: Instant,
    served: Instant,
    retrain_s: f64,
    iterations: u64,
    version: u64,
    model_bytes: usize,
}

/// One pass over the three shards. Returns the stage marks, the reader
/// log and how many stages failed to retrain or publish.
fn pass(
    fx: &Fixture,
    pass_idx: u64,
    window: Instant,
    tracer: &mut Tracer,
    reader_capacity: usize,
) -> (Vec<StageMarks>, ReaderLog, u64) {
    let registry = Arc::new(ModelRegistry::new(fx.exp.model.clone()));
    let engine = Engine::start(Arc::clone(&registry), BatchPolicy::default());
    let mut model = fx.exp.model.clone();
    let looper = OnlineLoop {
        cfg: TrainConfig {
            batch_size: BATCH_SIZE,
            max_epochs: STAGE_EPOCHS,
            eval_frames: GEN.frames_per_temperature,
            ..TrainConfig::default()
        },
        fekf: FekfConfig::default(),
        robust: RobustConfig::default(),
    };
    // The reader cycles over every frame of every shard: after one lap
    // its geometries hit the snapshot's cache, until a publish swaps in
    // a fresh one.
    let reader_frames: Vec<Snapshot> = fx
        .shards
        .iter()
        .flat_map(|s| s.frames.iter().cloned())
        .collect();
    let stop = AtomicBool::new(false);
    let reader_tracer = Tracer::new(tracer.enabled(), tracer.epoch(), reader_capacity);
    let mut marks: Vec<StageMarks> = Vec::with_capacity(STAGES);

    let (reports, log) = std::thread::scope(|scope| {
        let reader_handle = scope.spawn(|| {
            reader(
                &engine,
                &reader_frames,
                &stop,
                window,
                reader_tracer,
                reader_capacity,
            )
        });
        let mut arrival = Instant::now();
        let reports = looper.run_published(&mut model, &fx.shards, &mut |model, report| {
            let hook_start = Instant::now();
            let compressed = CompressedModel::compress(model, &CompressSpec::default())?;
            let t_compressed = Instant::now();
            let quantized = QuantizedModel::quantize(&compressed, &fx.shards[report.stage].frames)?;
            let t_quantized = Instant::now();
            let model_bytes = deepmd_core::model_io::to_bytes(model).len();
            let version = registry
                .publish_with_artifacts(model.clone(), Some(compressed), Some(quantized))
                .map_err(|e| e.to_string())?;
            let t_published = Instant::now();
            // The stage is over when a response carries the new version.
            let probe = &fx.shards[report.stage].frames[0];
            loop {
                let resp = engine
                    .infer(probe.clone(), true)
                    .map_err(|e| e.to_string())?;
                if resp.version >= version {
                    break;
                }
            }
            let served = Instant::now();
            marks.push(StageMarks {
                arrival,
                hook_start,
                compressed: t_compressed,
                quantized: t_quantized,
                published: t_published,
                served,
                retrain_s: report.retrain_s,
                iterations: report.iterations,
                version,
                model_bytes,
            });
            // The next shard arrives the moment this one is served.
            arrival = served;
            Ok(FidelitySet {
                compressed: true,
                quantized: true,
            })
        });
        stop.store(true, Ordering::Release);
        (
            reports,
            reader_handle.join().expect("reader thread must not panic"),
        )
    });
    let mut log = log;
    log.stats = Some(engine.stats());
    engine.shutdown();

    for m in &marks {
        let op = pass_idx * STAGES as u64 + m.version;
        tracer.record("online.stage", op, m.arrival, m.served);
        tracer.record("online.eval_and_retrain", op, m.arrival, m.hook_start);
        tracer.record("core.compress", op, m.hook_start, m.compressed);
        tracer.record("core.quantize", op, m.compressed, m.quantized);
        tracer.record("serve.publish", op, m.quantized, m.published);
        tracer.record("serve.first_served", op, m.published, m.served);
    }
    let failed_stages = reports.iter().filter(|r| !r.published()).count() as u64;

    // Bitwise check of the master-pinned sample against the snapshot
    // that answered it.
    let frames = &reader_frames;
    log.pinned.retain(|p| {
        let Some(snapshot) = registry.snapshot_at(p.version) else {
            return true;
        };
        let direct = snapshot.model.predict(&frames[p.frame]);
        !same_bits(&direct, p.energy, &p.forces)
    });
    (marks, log, failed_stages)
}

pub fn run(args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let (fx, setup_s) = repeated_setup(tracer, |t| setup(args.seed, t));
    let reader_capacity = (READER_RPS * args.seconds * 3.0) as usize;

    let root = tracer.begin("workload", 0);
    let window = Instant::now();
    let mut all_marks: Vec<StageMarks> = Vec::new();
    let mut pass_s = Vec::new();
    let mut latency = Recorder::with_capacity(reader_capacity);
    let (mut errors, mut failed_stages, mut mismatches, mut pinned_total) =
        (0u64, 0u64, 0usize, 0usize);
    let mut versions_ok = true;
    let mut engine_stats = None;
    let mut passes = 0u64;
    let mut last_pass_s = 0.0;
    while passes == 0 || window.elapsed().as_secs_f64() + last_pass_s <= args.seconds * 1.1 {
        let span = tracer.begin("online.pass", passes);
        let t0 = Instant::now();
        let (marks, log, failed) = pass(&fx, passes, window, tracer, reader_capacity);
        last_pass_s = t0.elapsed().as_secs_f64();
        tracer.end(span);
        passes += 1;
        // Three accepted publishes, versions 2, 3, 4 in order.
        versions_ok &=
            marks.len() == STAGES && marks.iter().zip(2u64..).all(|(m, v)| m.version == v);
        versions_ok &= log.versions_monotone;
        if let (Some(first), Some(last)) = (marks.first(), marks.last()) {
            pass_s.push((last.served - first.arrival).as_secs_f64());
        }
        all_marks.extend(marks);
        for s in log.latency.samples() {
            latency.record(s.at_ns, s.ns);
        }
        errors += log.errors;
        failed_stages += failed;
        pinned_total += log.latency.len().div_ceil(PIN_EVERY);
        mismatches += log.pinned.len();
        tracer.merge(log.tracer);
        engine_stats = log.stats;
    }
    tracer.end(root);
    let window_s = window.elapsed().as_secs_f64();

    let requests = latency.len() as u64;
    let stages = passes * STAGES as u64;
    let mut checks = vec![
        check(
            "online.three_publishes",
            versions_ok && failed_stages == 0,
            format!(
                "{} of {stages} stages published, versions monotone: {versions_ok}",
                all_marks.len()
            ),
        ),
        check(
            "online.served_bitwise",
            mismatches == 0 && pinned_total > 0,
            format!(
                "{mismatches} of {pinned_total} master-pinned responses differ from model.predict"
            ),
        ),
        check(
            "online.requests_resolve",
            errors == 0,
            format!("{errors} of {requests} reader requests failed"),
        ),
    ];

    let stage_s: Vec<f64> = all_marks
        .iter()
        .map(|m| (m.served - m.arrival).as_secs_f64())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let limit_ns = LATENCY_LIMIT.as_nanos() as u64;
    let good_per_s = latency.rate_per_s(0, (window_s * 1e9) as u64, |s| s.ns <= limit_ns);
    let lat = latency
        .summary()
        .expect("the reader sent requests throughout every pass");
    let notes = vec![format!(
        "{passes} pass(es), {} stages, stage times {:?} s; reader: {requests} requests, tail = p{:.1}",
        all_marks.len(),
        stage_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        lat.tail_percentile * 100.0
    )];
    let retrain_total_s = all_marks.iter().map(|m| m.retrain_s).sum::<f64>().max(1e-9);
    let work = Work {
        setup_s,
        goal_s: if pass_s.is_empty() {
            window_s
        } else {
            median(&pass_s)
        },
        frames_per_s: all_marks
            .iter()
            .map(|m| (m.iterations * BATCH_SIZE as u64) as f64)
            .sum::<f64>()
            / retrain_total_s,
        arrival_to_served_s: if stage_s.is_empty() {
            window_s
        } else {
            mean(&stage_s)
        },
        lat,
        good_per_s,
    };

    let mut layers = Layers::default();
    if tracer.enabled() && !all_marks.is_empty() {
        let secs =
            |f: &dyn Fn(&StageMarks) -> f64| mean(&all_marks.iter().map(f).collect::<Vec<_>>());
        let retrain = secs(&|m| m.retrain_s);
        let eval = secs(&|m| (m.hook_start - m.arrival).as_secs_f64() - m.retrain_s);
        let compress = secs(&|m| (m.compressed - m.hook_start).as_secs_f64());
        let quantize = secs(&|m| (m.quantized - m.compressed).as_secs_f64());
        let publish = secs(&|m| (m.published - m.quantized).as_secs_f64());
        let first_served = secs(&|m| (m.served - m.published).as_secs_f64());
        layers.set("online.retrain_s", retrain);
        layers.set("online.eval_s", eval);
        layers.set("core.compress_s", compress);
        layers.set("core.quantize_s", quantize);
        layers.set("serve.publish_ms", publish * 1e3);
        layers.set("serve.first_served_ms", first_served * 1e3);
        layers.set("core.model_bytes", all_marks[0].model_bytes as f64);
        let sum = retrain + eval + compress + quantize + publish + first_served;
        layers.set(
            "online.stage_sum_gap",
            (sum - work.arrival_to_served_s).abs() / work.arrival_to_served_s,
        );
        if let Some(stats) = &engine_stats {
            layers.set("serve.mean_batch", stats.mean_batch);
            layers.set("serve.max_depth", stats.max_depth as f64);
            layers.set("core.env_cache_hit_rate", stats.cache_hit_rate);
        }
        let iters: u64 = all_marks.iter().map(|m| m.iterations).sum();
        layers.set("train.iter_ms", retrain_total_s * 1e3 / iters.max(1) as f64);
        checks.extend(finish_trace(tracer, &mut layers, window_s));
    }

    Outcome {
        attempted: stages + requests,
        failed: failed_stages + errors,
        checks,
        work,
        layers,
        notes,
    }
}
