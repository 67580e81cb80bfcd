//! `md_domain`: domain-decomposed NVE MD of a replicated copper
//! supercell (3888 atoms) on a 2×1×1 grid with the deep potential.
//! `dp-domain`'s halo exchange and migration and the per-domain
//! sub-frame evaluation do the work here and none in `md_served`; the
//! deep potential needs ghosts out to twice the cutoff, which makes the
//! ghost recompute the expensive part — the loss ROADMAP item 3 is
//! about.

use crate::common::{
    check, finish_trace, probe_ns, repeated_setup, snapshot_of, sub_seed, Outcome, RunArgs, Work,
};
use crate::metrics::Layers;
use crate::recorder::{median, Recorder};
use crate::trace::Tracer;
use deepmd_core::model::DeepPotModel;
use dp_data::generate::GenScale;
use dp_domain::{DecomposedMd, DeepDomainPotential};
use dp_mdsim::state::State;
use dp_mdsim::systems::PaperSystem;
use dp_train::recipes::{self, ModelScale};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// 4×3×3 copies of the 108-atom cell: every edge is at least three
/// cells, so the model's cutoff fits half the box.
const REPLICAS: [usize; 3] = [4, 3, 3];
const GRID: [usize; 3] = [2, 1, 1];
const DT_FS: f64 = 1.0;
/// The decomposed run must equal the 1×1×1 reference, bit for bit,
/// over this many leading steps.
const CHECK_STEPS: usize = 3;
/// `tta_s` here: wall time for this many steps at the measured rate.
const GOAL_STEPS: usize = 16;
/// A step slower than this misses.
const LATENCY_LIMIT: Duration = Duration::from_millis(1000);
/// Just enough labelled frames to initialise the model's statistics;
/// the weights stay as initialised (forces are finite and smooth,
/// which is all an MD cost benchmark needs).
const GEN: GenScale = GenScale {
    frames_per_temperature: 2,
    equilibration: 10,
    stride: 2,
};

struct Fixture {
    state: State,
    model: DeepPotModel,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Fixture {
    let span = tracer.begin("data.generate", 0);
    let model = recipes::setup(
        PaperSystem::Cu,
        &GEN,
        ModelScale::Small,
        sub_seed(seed, 0x646f_6d31),
    )
    .model;
    let (mut state, _) = PaperSystem::Cu.replicate(REPLICAS[0], REPLICAS[1], REPLICAS[2]);
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0x646f_6d32));
    state.jitter_positions(0.05, &mut rng);
    state.init_velocities(300.0, &mut rng);
    tracer.end(span);
    Fixture { state, model }
}

fn engine(fx: &Fixture, grid: [usize; 3]) -> DecomposedMd {
    let n_domains = grid.iter().product();
    let pot = Box::new(DeepDomainPotential::new(fx.model.clone(), n_domains));
    DecomposedMd::new(&fx.state, pot, grid).expect("the supercell fits the grid and the cutoff")
}

fn positions_bits(md: &DecomposedMd) -> Vec<[u64; 3]> {
    md.gather()
        .pos
        .iter()
        .map(|p| p.0.map(f64::to_bits))
        .collect()
}

pub fn run(args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let (fx, setup_s) = repeated_setup(tracer, |t| setup(args.seed, t));
    // Building the engine evaluates the initial forces: part of
    // bringing the system up, not of stepping it.
    let mut md = engine(&fx, GRID);
    let capacity = (args.seconds * 200.0) as usize;
    let mut step_ns = Recorder::with_capacity(capacity);
    let (mut steps, mut bad_steps) = (0usize, 0u64);
    let mut at_check: Option<Vec<[u64; 3]>> = None;

    let root = tracer.begin("workload", 0);
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        let span = tracer.begin("domain.step", steps as u64);
        let t0 = Instant::now();
        let e_pot = md.step_nve(DT_FS);
        step_ns.record(
            window.elapsed().as_nanos() as u64,
            t0.elapsed().as_nanos() as u64,
        );
        tracer.end(span);
        bad_steps += u64::from(!e_pot.is_finite());
        steps += 1;
        if steps == CHECK_STEPS {
            at_check = Some(positions_bits(&md));
        }
    }
    tracer.end(root);
    let window_s = window.elapsed().as_secs_f64();
    let steps = steps as u64;
    md.assert_invariants();

    // The 1×1×1 reference over the leading steps: the output check,
    // and the single-domain step time the traced run reports.
    let mut reference = engine(&fx, [1, 1, 1]);
    let mut single_ns = Vec::with_capacity(CHECK_STEPS);
    for i in 0..CHECK_STEPS {
        let span = tracer.begin("probe.single_domain_step", i as u64);
        let t0 = Instant::now();
        reference.step_nve(DT_FS);
        single_ns.push(t0.elapsed().as_nanos() as f64);
        tracer.end(span);
    }
    let same = at_check
        .as_ref()
        .is_some_and(|bits| *bits == positions_bits(&reference));

    let limit_ns = LATENCY_LIMIT.as_nanos() as u64;
    let window_ns = (window_s * 1e9) as u64 + 1;
    let steps_per_s = step_ns.rate_per_s(0, window_ns, |_| true);
    let good_per_s = step_ns.rate_per_s(0, window_ns, |s| s.ns <= limit_ns);
    let lat = step_ns.summary().expect("the window ran at least one step");
    let mut checks = vec![
        check(
            "domain.energies_finite",
            bad_steps == 0,
            format!("{bad_steps} of {steps} steps had a non-finite energy"),
        ),
        check(
            "domain.bitwise_vs_single",
            same,
            format!(
                "positions after {CHECK_STEPS} steps on {GRID:?} vs [1, 1, 1] ({} atoms)",
                md.n_atoms()
            ),
        ),
    ];
    let notes = vec![format!(
        "{steps} steps of {} atoms in {window_s:.2} s; step latency from {} samples, tail = p{:.1}",
        md.n_atoms(),
        lat.count,
        lat.tail_percentile * 100.0
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
        let n_domains: usize = GRID.iter().product();
        let owned: Vec<usize> = (0..n_domains).map(|d| md.domain_len(d)).collect();
        let ghosts: usize = (0..n_domains).map(|d| md.ghost_len(d)).sum();
        let total: usize = owned.iter().sum();
        layers.set("domain.ghost_ratio", ghosts as f64 / total as f64);
        layers.set(
            "domain.imbalance",
            *owned.iter().max().expect("domains") as f64 * n_domains as f64 / total as f64,
        );
        let step_ms = lat.mean_ns / 1e6;
        // `compute()` re-evaluates forces at the current positions: the
        // potential's share of a step. The rest of the step is halo
        // exchange, migration, integration and the reductions.
        let compute_ms = probe_ns(tracer, "probe.domain_compute", 3, |_| {
            std::hint::black_box(md.compute());
        }) / 1e6;
        let single_ms = median(&single_ns) / 1e6;
        layers.set("domain.step_ms", step_ms);
        layers.set("domain.compute_ms", compute_ms);
        layers.set("domain.non_compute_ms", step_ms - compute_ms);
        layers.set("domain.single_step_ms", single_ms);
        layers.set("domain.grid_speedup", single_ms / step_ms);
        let frame = snapshot_of(&fx.state);
        let env_build = probe_ns(tracer, "probe.env_build", 3, |_| {
            std::hint::black_box(deepmd_core::env_cache::FrameEnv::build(
                &fx.model.cfg,
                &fx.model.stats,
                &frame,
            ));
        });
        layers.set("core.env_build_us", env_build / 1e3);
        let neighbor = probe_ns(tracer, "probe.neighbor_build", 5, |_| {
            std::hint::black_box(dp_mdsim::neighbor::NeighborList::build(
                &fx.state.cell,
                &fx.state.pos,
                fx.model.cfg.rcut,
            ));
        });
        layers.set("mdsim.neighbor_build_ms", neighbor / 1e6);
        layers.set(
            "core.model_bytes",
            deepmd_core::model_io::to_bytes(&fx.model).len() as f64,
        );
        checks.extend(finish_trace(tracer, &mut layers, window_s));
    }

    Outcome {
        attempted: steps,
        failed: bad_steps,
        checks,
        work,
        layers,
        notes,
    }
}
