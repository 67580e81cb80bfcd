//! What every workload shares: its arguments, what it hands back, the
//! one place the nine end-to-end metrics are computed, and small
//! helpers (seed streams, repeated set-up, peak RSS, timing loops).

use crate::metrics::{EndToEnd, Layers};
use crate::recorder::{median, Summary};
use crate::trace::Tracer;
use deepmd_core::model::Prediction;
use dp_data::dataset::Snapshot;
use dp_mdsim::state::State;
use dp_mdsim::Vec3;
use rand::RngCore;
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
}

/// One named output check; a failed check makes the run incorrect.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// The raw quantities of a run. Every workload fills every field from
/// its own timed work, and [`Work::end_to_end`] is the only place they
/// become the contract's metrics, so one metric means one formula
/// everywhere (README.md has the per-workload reading of each field).
pub struct Work {
    /// Median of the repeated set-ups, s.
    pub setup_s: f64,
    /// Wall time until the workload's goal was first met, s.
    pub goal_s: f64,
    /// Atomic configurations pushed through the model per second.
    pub frames_per_s: f64,
    /// Mean time from an input's arrival to the first result that
    /// reflects it, s.
    pub arrival_to_served_s: f64,
    /// Latency of the workload's operation.
    pub lat: Summary,
    /// Operations per second that completed OK within the latency
    /// limit.
    pub good_per_s: f64,
}

/// ns/day of MD at a 1 fs step that one frame per second sustains.
const NS_PER_DAY_PER_FRAME_PER_S: f64 = 86_400.0 * 1e-6;

impl Work {
    pub fn end_to_end(&self, peak_rss_mb: f64) -> EndToEnd {
        EndToEnd {
            setup_s: self.setup_s,
            tta_s: self.goal_s,
            train_frames_per_s: self.frames_per_s,
            arrival_to_served_s: self.arrival_to_served_s,
            lat_p50_ms: self.lat.p50_ms(),
            lat_p99_ms: self.lat.tail_ms(),
            slo_goodput_rps: self.good_per_s,
            md_ns_per_day: self.frames_per_s * NS_PER_DAY_PER_FRAME_PER_S,
            peak_rss_mb,
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted and failed (requests, training runs,
    /// stages, MD steps — the workload says which in `notes`).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub work: Work,
    /// Per-layer values (traced run only; empty otherwise).
    pub layers: Layers,
    /// Human-readable lines for stderr (sample counts, percentiles
    /// actually reported, unresolved gaps).
    pub notes: Vec<String>,
}

/// Independent seed streams from the one `--seed`: the first output of
/// the workspace's SplitMix64 seeded with the seed and a stream tag.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut mixer = rand::SplitMix64 {
        state: seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    };
    mixer.next_u64()
}

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times under a `setup` span, keep the
/// last fixture, return it with the median set-up time.
pub fn repeated_setup<T>(tracer: &mut Tracer, mut setup: impl FnMut(&mut Tracer) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for i in 0..SETUP_REPEATS {
        drop(fixture.take());
        let span = tracer.begin("setup", i as u64);
        let t0 = Instant::now();
        fixture = Some(setup(tracer));
        times.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
    }
    (fixture.expect("SETUP_REPEATS >= 1"), median(&times))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median duration of `reps` calls of `f`, ns, each call under a span.
pub fn probe_ns(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps {
        let span = tracer.begin(name, i as u64);
        let t0 = Instant::now();
        f(i);
        times.push(t0.elapsed().as_nanos() as f64);
        tracer.end(span);
    }
    median(&times)
}

/// What every traced run ends with: the set-up's data generation
/// time, two context probes (the cost of an empty
/// `dp_pool::parallel_for` region, the rate of a 128³ GEMM) and the
/// metrics that describe the trace itself, with the two checks that say
/// whether it can be trusted. The window's length is fixed, so traced
/// and untraced walls cannot be compared; the overhead is instead the
/// spans recorded inside the window times the measured cost of one.
pub fn finish_trace(tracer: &mut Tracer, layers: &mut Layers, window_s: f64) -> Vec<Check> {
    let n = dp_pool::current_threads();
    let empty = probe_ns(tracer, "probe.pool_empty", 200, |_| {
        dp_pool::parallel_for(n, &|i| {
            std::hint::black_box(i);
        })
    });
    layers.set("pool.parallel_for_empty_us", empty / 1e3);
    let a = dp_tensor::Mat::from_vec(
        128,
        128,
        (0..128 * 128).map(|i| (i % 7) as f64 * 0.25).collect(),
    );
    let b = a.clone();
    let gemm = probe_ns(tracer, "probe.gemm_128", 20, |_| {
        std::hint::black_box(a.matmul(&b));
    });
    layers.set("tensor.gemm_128_gflops", 2.0 * 128f64.powi(3) / gemm);

    let totals = crate::trace::totals_by_name(tracer.spans());
    let generate_ns = totals
        .iter()
        .find(|t| t.name == "data.generate")
        .map_or(0, |t| t.total_ns);
    layers.set(
        "data.generate_s",
        generate_ns as f64 / SETUP_REPEATS as f64 / 1e9,
    );
    let in_window = tracer
        .spans()
        .iter()
        .filter(|s| !s.name.starts_with("probe.") && s.name != "setup")
        .count();
    let overhead = in_window as f64 * Tracer::span_cost_ns() / (window_s * 1e9);
    let coverage = crate::trace::coverage(&totals, "workload");
    layers.set("trace.spans", tracer.spans().len() as f64);
    layers.set("trace.overhead_frac", overhead);
    layers.set("trace.coverage", coverage);
    vec![
        check(
            "trace.overhead",
            overhead < 0.05,
            format!(
                "{in_window} spans in the window cost {:.4} % of it",
                overhead * 100.0
            ),
        ),
        check(
            "trace.coverage",
            coverage > 0.9,
            format!(
                "{:.2} % of the window is inside child spans",
                coverage * 100.0
            ),
        ),
    ]
}

/// Is a served answer bit for bit what `model.predict` gives?
pub fn same_bits(direct: &Prediction, energy: f64, forces: &[Vec3]) -> bool {
    direct.energy.to_bits() == energy.to_bits()
        && direct.forces.len() == forces.len()
        && direct
            .forces
            .iter()
            .zip(forces)
            .all(|(a, b)| a.0.map(f64::to_bits) == b.0.map(f64::to_bits))
}

/// The request frame of an MD state: wrapped positions, no labels.
pub fn snapshot_of(state: &State) -> Snapshot {
    Snapshot {
        cell: state.cell.lengths(),
        types: state.types.clone(),
        type_names: state.type_names.clone(),
        pos: state.pos.iter().map(|p| state.cell.wrap(p)).collect(),
        energy: 0.0,
        forces: vec![Vec3::ZERO; state.n_atoms()],
        temperature: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_eq!(sub_seed(1, 1), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mb() > 1.0);
    }
}
