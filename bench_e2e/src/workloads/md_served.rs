//! `md_served`: velocity-Verlet NVE on the 32-atom Al fixture where
//! every force evaluation is one `WireClient::call` over a real Unix
//! socket to a `WireServer` in front of a 1-shard fleet. One
//! connection, closed loop, and every geometry is new, so the
//! environment cache never hits. The step is latency-bound: the batch
//! queue's wait, the wire codec and the socket decide it — the same
//! batch layer `fleet_open` wants to fill, this workload wants to
//! bypass.

use crate::common::{
    check, finish_trace, probe_ns, repeated_setup, same_bits, snapshot_of, sub_seed, Outcome,
    RunArgs, Work,
};
use crate::metrics::Layers;
use crate::recorder::Recorder;
use crate::trace::Tracer;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Snapshot;
use dp_mdsim::integrate::{evaluate, langevin_step, velocity_verlet_step, Langevin};
use dp_mdsim::neighbor::NeighborList;
use dp_mdsim::potential::Potential;
use dp_mdsim::state::State;
use dp_mdsim::systems::PaperSystem;
use dp_mdsim::Vec3;
use dp_serve::demo::demo_model;
use dp_serve::wire::{self, WireClient, WireServer};
use dp_serve::{Fleet, FleetConfig, InferRequest, InferResponse, ModelRegistry, ModelTable};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// MD time step, fs.
const DT_FS: f64 = 1.0;
/// Thermostatted steps under the classical potential during set-up.
const EQUILIBRATION_STEPS: usize = 400;
/// A force call slower than this misses.
const LATENCY_LIMIT: Duration = Duration::from_millis(20);
/// `tta_s` here: wall time for a picosecond of trajectory at the
/// measured step rate.
const GOAL_STEPS: usize = 1000;
/// Every this-many-th served response is kept and compared bit for bit
/// with `model.predict` after the window.
const KEEP_EVERY: u64 = 64;

struct Fixture {
    model: DeepPotModel,
    fleet: Arc<Fleet>,
    // Declared before the server so the connection closes first and
    // the server's connection thread can exit.
    client: WireClient,
    server: WireServer,
    state: State,
}

/// The socket lives inside the checkout, under a short relative path
/// (`sun_path` holds about 100 bytes).
fn socket_path() -> PathBuf {
    let dir = PathBuf::from("bench_e2e/results");
    std::fs::create_dir_all(&dir)
        .expect("bench_e2e/results must be creatable: run from the repository root");
    dir.join(format!("md_served_{}.sock", std::process::id()))
}

fn setup(seed: u64, tracer: &mut Tracer) -> Fixture {
    // The starting point of the trajectory: the Al cell thermalised
    // under its classical potential, so the served model is asked
    // about a liquid-like 300 K geometry, not a jittered lattice.
    let span = tracer.begin("data.generate", 0);
    let (mut state, classical) = PaperSystem::Al.preset().instantiate();
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0x6d64_7331));
    state.jitter_positions(0.05, &mut rng);
    state.init_velocities(300.0, &mut rng);
    let thermostat = Langevin {
        temperature: 300.0,
        friction: 0.08,
    };
    let (_, mut forces) = evaluate(classical.as_ref(), &state);
    for _ in 0..EQUILIBRATION_STEPS {
        langevin_step(
            classical.as_ref(),
            &mut state,
            &mut forces,
            DT_FS,
            &thermostat,
            &mut rng,
        );
    }
    tracer.end(span);
    let model = demo_model(sub_seed(seed, 0x6d64_7332));
    let registry = Arc::new(ModelRegistry::new(model.clone()));
    let fleet = Arc::new(Fleet::start(
        FleetConfig::new(1),
        ModelTable::single(registry),
    ));
    let server = WireServer::bind(Arc::clone(&fleet), socket_path())
        .expect("bind the benchmark's own socket");
    let client = WireClient::connect(server.path()).expect("connect to the server just bound");
    Fixture {
        model,
        fleet,
        client,
        server,
        state,
    }
}

/// What the MD client accumulates across force calls.
struct Client {
    wire: WireClient,
    tracer: Tracer,
    /// Completion times are taken from here.
    epoch: Instant,
    calls: u64,
    failures: u64,
    latency: Recorder,
    request_bytes: usize,
    kept: Vec<(Snapshot, InferResponse)>,
}

/// A force field that owns no weights: every evaluation is a request
/// over the socket. `Potential` is `Sync`; the driver is one thread,
/// so the lock is never contended.
struct ServedPotential {
    cutoff: f64,
    client: Mutex<Client>,
}

impl Potential for ServedPotential {
    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn name(&self) -> &'static str {
        "served-over-uds"
    }

    fn compute(&self, state: &State, _nl: &NeighborList, forces: &mut [Vec3]) -> f64 {
        let mut guard = self.client.lock().expect("single-threaded driver");
        let c = &mut *guard;
        let op = c.calls;
        c.calls += 1;
        let t0 = Instant::now();
        let frame = snapshot_of(state);
        let span = c.tracer.begin("wire.encode_infer", op);
        let bytes = wire::encode_infer(&InferRequest::new(frame.clone(), true));
        c.tracer.end(span);
        c.request_bytes = bytes.len();
        let span = c.tracer.begin("wire.call", op);
        let reply = c.wire.call(&bytes);
        c.tracer.end(span);
        let span = c.tracer.begin("wire.decode", op);
        let decoded = reply.ok().and_then(|r| wire::decode_infer_reply(&r).ok());
        c.tracer.end(span);
        let ok = matches!(&decoded, Some(Ok(resp)) if resp.forces.is_some());
        c.latency.record(
            c.epoch.elapsed().as_nanos() as u64,
            if ok {
                t0.elapsed().as_nanos() as u64
            } else {
                u64::MAX
            },
        );
        match decoded {
            Some(Ok(resp)) if resp.forces.is_some() => {
                for (dst, src) in forces
                    .iter_mut()
                    .zip(resp.forces.as_ref().expect("checked"))
                {
                    *dst += *src;
                }
                let energy = resp.energy;
                if op.is_multiple_of(KEEP_EVERY) {
                    c.kept.push((frame, resp));
                }
                energy
            }
            // Transport failure, typed refusal or an energy-only
            // answer: the step cannot integrate, and counts as failed.
            _ => {
                c.failures += 1;
                f64::NAN
            }
        }
    }
}

pub fn run(args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let (fx, setup_s) = repeated_setup(tracer, |t| setup(args.seed, t));
    let Fixture {
        model,
        fleet,
        client,
        mut server,
        mut state,
    } = fx;
    let capacity = (args.seconds * 5000.0) as usize;
    // The client records its spans into the run's tracer, so a step's
    // children hang off the step span; handed back after the window.
    let run_tracer = std::mem::replace(tracer, Tracer::new(false, tracer.epoch(), 0));
    let pot = ServedPotential {
        cutoff: model.cfg.rcut,
        client: Mutex::new(Client {
            wire: client,
            tracer: run_tracer,
            epoch: Instant::now(),
            calls: 0,
            failures: 0,
            latency: Recorder::with_capacity(capacity),
            request_bytes: 0,
            kept: Vec::with_capacity(capacity / KEEP_EVERY as usize + 1),
        }),
    };
    let span_on = |name: &'static str, op: u64| {
        pot.client
            .lock()
            .expect("single-threaded driver")
            .tracer
            .begin(name, op)
    };
    let span_off = |s| {
        pot.client
            .lock()
            .expect("single-threaded driver")
            .tracer
            .end(s)
    };

    let (_, mut forces) = evaluate(&pot, &state);
    let root = span_on("workload", 0);
    let window = Instant::now();
    let (mut steps, mut bad_steps) = (0u64, 0u64);
    while window.elapsed().as_secs_f64() < args.seconds {
        let span = span_on("md.step", steps);
        let e_pot = velocity_verlet_step(&pot, &mut state, &mut forces, DT_FS);
        span_off(span);
        bad_steps += u64::from(!e_pot.is_finite());
        steps += 1;
    }
    span_off(root);
    let window_s = window.elapsed().as_secs_f64();

    let mut c = pot.client.into_inner().expect("single-threaded driver");
    *tracer = std::mem::replace(&mut c.tracer, Tracer::new(false, Instant::now(), 0));
    // The warm-up evaluation before the window is not a step.
    let from_ns = window.duration_since(c.epoch).as_nanos() as u64;
    let to_ns = from_ns + (window_s * 1e9) as u64;
    let mut latency = Recorder::with_capacity(c.latency.len());
    for s in c.latency.samples().iter().filter(|s| s.at_ns >= from_ns) {
        latency.record(s.at_ns, s.ns);
    }
    let limit_ns = LATENCY_LIMIT.as_nanos() as u64;
    let steps_per_s = latency.rate_per_s(from_ns, to_ns, |s| s.ns != u64::MAX);
    let good_per_s = latency.rate_per_s(from_ns, to_ns, |s| s.ns <= limit_ns);
    let lat = latency.summary().expect("the window ran at least one step");

    let mismatches = c
        .kept
        .iter()
        .filter(|(frame, resp)| {
            let direct = model.predict(frame);
            let forces = resp.forces.as_ref().expect("kept responses carry forces");
            !same_bits(&direct, resp.energy, forces)
        })
        .count();
    let stats = fleet.stats_per_shard().remove(0).1;
    let mut checks = vec![
        check(
            "md.energies_finite",
            bad_steps == 0,
            format!("{bad_steps} of {steps} steps had a non-finite energy"),
        ),
        check(
            "md.calls_resolve",
            c.failures == 0,
            format!("{} of {} force calls failed", c.failures, c.calls),
        ),
        check(
            "md.served_bitwise",
            mismatches == 0 && !c.kept.is_empty(),
            format!(
                "{mismatches} of {} kept responses differ from model.predict",
                c.kept.len()
            ),
        ),
    ];
    let notes = vec![format!(
        "{steps} steps in {window_s:.2} s over one connection; call latency from {} samples, tail = p{:.1}; cache hit rate {:.3}",
        lat.count,
        lat.tail_percentile * 100.0,
        stats.cache_hit_rate
    )];
    let work = Work {
        setup_s,
        goal_s: GOAL_STEPS as f64 / steps_per_s,
        frames_per_s: steps_per_s,
        arrival_to_served_s: lat.mean_ns / 1e9,
        lat,
        good_per_s,
    };

    let mut layers = Layers::default();
    if tracer.enabled() {
        let totals = crate::trace::totals_by_name(tracer.spans());
        let mean_us = |name: &str| crate::trace::mean_ns(&totals, name) / 1e3;
        layers.set("wire.encode_infer_us", mean_us("wire.encode_infer"));
        layers.set("wire.call_us", mean_us("wire.call"));
        layers.set("wire.decode_us", mean_us("wire.decode"));
        layers.set("wire.frame_bytes", c.request_bytes as f64);
        let step = totals
            .iter()
            .find(|t| t.name == "md.step")
            .expect("steps were traced");
        layers.set(
            "md.client_self_ms",
            step.self_ns as f64 / step.count as f64 / 1e6,
        );
        layers.set("serve.mean_batch", stats.mean_batch);
        layers.set("serve.max_depth", stats.max_depth as f64);
        layers.set("serve.shed", stats.shed as f64);
        layers.set("serve.deadline_miss", stats.deadline_miss as f64);
        layers.set("serve.degraded", stats.degraded as f64);
        layers.set("core.env_cache_hit_rate", stats.cache_hit_rate);
        layers.set(
            "core.model_bytes",
            deepmd_core::model_io::to_bytes(&model).len() as f64,
        );

        let health = wire::encode_health();
        let rtt = probe_ns(tracer, "probe.uds_rtt", 200, |_| {
            std::hint::black_box(c.wire.call(&health).expect("health frame round trip"));
        });
        layers.set("wire.uds_rtt_us", rtt / 1e3);
        let frame = snapshot_of(&state);
        let direct = probe_ns(tracer, "probe.direct_eval", 32, |_| {
            std::hint::black_box(model.predict(&frame));
        });
        layers.set("serve.direct_eval_us", direct / 1e3);
        layers.set("serve.overhead_us", (work.lat.p50_ns as f64 - direct) / 1e3);
        let env_build = probe_ns(tracer, "probe.env_build", 32, |_| {
            std::hint::black_box(deepmd_core::env_cache::FrameEnv::build(
                &model.cfg,
                &model.stats,
                &frame,
            ));
        });
        layers.set("core.env_build_us", env_build / 1e3);
        // The list the integrator builds each step and the served
        // client never reads.
        let neighbor = probe_ns(tracer, "probe.neighbor_build", 32, |_| {
            std::hint::black_box(NeighborList::build(&state.cell, &state.pos, model.cfg.rcut));
        });
        layers.set("mdsim.neighbor_build_ms", neighbor / 1e6);
        checks.extend(finish_trace(tracer, &mut layers, window_s));
    }

    drop(c);
    server.shutdown();
    fleet.shutdown();
    Outcome {
        attempted: steps,
        failed: bad_steps,
        checks,
        work,
        layers,
        notes,
    }
}
