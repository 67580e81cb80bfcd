//! The experiment registry: every table and figure of the paper's
//! evaluation as one `fn(&Ctx) -> Outcome`, the protocol pieces they
//! share, and the paper's shape claims judged on the rows each
//! experiment has just measured.
//!
//! A claim is *exact* when its operands are deterministic for a given
//! seed, backend and scale (epoch counts, RMSEs, launch counts, byte
//! formulas) and *timed* when they are wall-clock; timed claims only
//! ever compare measurements taken in this process. A run that hit its
//! epoch cap before its target is not a measurement: it bounds the
//! ratios it enters ([`Ratio`]) and their claims read "not reached
//! (cap)", never "reproduced".

use crate::{fmt_mb, fmt_secs, Ctx, Table};
use deepmd_core::loss::Metrics;
use dp_data::generate::GenScale;
use dp_mdsim::systems::PaperSystem;
use dp_optim::adam::{Adam, AdamConfig};
use dp_optim::blocks::BlockLayout;
use dp_optim::fekf::{Fekf, FekfConfig, QuasiLr};
use dp_optim::naive_ekf::NaiveEkf;
use dp_optim::pmatrix::memory_report;
use dp_parallel::comm_model::{fekf_iteration_stats, naive_ekf_p_stats, ring_allreduce_stats, ClusterModel};
use dp_tensor::kernel;
use dp_train::metrics::TrainHistory;
use dp_train::recipes::{
    run_adam, run_fekf, run_fekf_distributed, run_rlekf, setup, ExperimentSetup, ModelScale,
};
use dp_train::targets::{accumulate_energy_target, accumulate_force_targets, Backend};
use dp_train::trainer::{RobustConfig, TrainConfig, TrainOutcome, Trainer};
use Kind::{Exact, Timed};
use PaperSystem::{Al, Cu, NaCl};

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the command line and in the `EXPERIMENTS.md` markers.
    pub name: &'static str,
    /// Measure, tabulate and judge.
    pub run: fn(&Ctx) -> Outcome,
}

/// Every experiment, in document order.
pub static REGISTRY: [Experiment; 13] = [
    Experiment { name: "table1", run: table1 },
    Experiment { name: "table3", run: table3 },
    Experiment { name: "table4", run: table4 },
    Experiment { name: "table5", run: table5 },
    Experiment { name: "fig4", run: fig4 },
    Experiment { name: "fig7a", run: fig7a },
    Experiment { name: "fig7b", run: fig7b },
    Experiment { name: "fig7c", run: fig7c },
    Experiment { name: "memory", run: memory },
    Experiment { name: "scaling", run: scaling },
    Experiment { name: "ablation_dataflow", run: ablation_dataflow },
    Experiment { name: "ablation_blocksize", run: ablation_blocksize },
    Experiment { name: "ablation_lr_scaling", run: ablation_lr_scaling },
];

/// What one experiment produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The scale it ran at (system, frames, model, budgets), for the stamp.
    pub scale: String,
    /// Result tables in the paper's row/series layout.
    pub tables: Vec<Table>,
    /// The paper's claims, judged on those tables' rows.
    pub claims: Vec<Claim>,
}

/// How a claim fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The measured rows have the paper's shape.
    Reproduced,
    /// They do not.
    NotReproduced,
    /// A run the claim depends on hit its cap before its target.
    NotReached,
}

impl Verdict {
    /// The wording used in the document.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Reproduced => "reproduced",
            Verdict::NotReproduced => "NOT reproduced",
            Verdict::NotReached => "not reached (cap)",
        }
    }
}

/// Whether a claim's operands are deterministic or wall-clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic; a failing exact claim makes `reproduce` exit non-zero.
    Exact,
    /// Wall-clock measurements of this process.
    Timed,
}

/// One shape claim of the paper and its verdict on this run.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The claim, in words.
    pub text: String,
    /// The paper's value.
    pub paper: String,
    /// What this run measured.
    pub measured: String,
    /// The judgement.
    pub verdict: Verdict,
    /// Exact or timed.
    pub kind: Kind,
}

impl Claim {
    fn new(kind: Kind, text: &str, paper: &str, measured: String, holds: bool) -> Claim {
        let verdict = if holds { Verdict::Reproduced } else { Verdict::NotReproduced };
        Claim { text: text.into(), paper: paper.into(), measured, verdict, kind }
    }

    /// The claim that every one of `ratios` satisfies `holds`. A measured
    /// ratio that fails it decides the claim; otherwise one bound among
    /// them leaves it undecided.
    fn ratios(
        kind: Kind,
        text: &str,
        paper: &str,
        ratios: &[Ratio],
        decimals: usize,
        holds: fn(f64) -> bool,
    ) -> Claim {
        let measured: Vec<String> = ratios.iter().map(|r| r.show(decimals, "x")).collect();
        let fails = ratios.iter().any(|r| matches!(r, Ratio::Measured(q) if !holds(*q)));
        let mut claim = Claim::new(kind, text, paper, measured.join(", "), !fails);
        if !fails && ratios.iter().any(|r| !matches!(r, Ratio::Measured(_))) {
            claim.verdict = Verdict::NotReached;
        }
        claim
    }
}

/// Epochs or seconds a run spent on the way to a target: only a lower
/// bound on the true cost when the run hit its cap first.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Capped {
    /// The epochs or seconds spent.
    pub value: f64,
    /// Whether the target was reached within the cap.
    pub reached: bool,
}

impl Capped {
    fn reached(value: f64) -> Capped {
        Capped { value, reached: true }
    }

    fn wall(out: &TrainOutcome) -> Capped {
        Capped { value: out.wall_s, reached: out.converged }
    }

    fn secs(&self) -> String {
        format!("{}{}", if self.reached { "" } else { ">" }, fmt_secs(self.value))
    }
}

/// A ratio of two [`Capped`] quantities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ratio {
    /// Both operands reached their target.
    Measured(f64),
    /// The numerator was capped: the true ratio is larger.
    Above(f64),
    /// The denominator was capped: the true ratio is smaller.
    Below(f64),
    /// Both were capped: the quotient bounds nothing.
    Unbounded,
}

impl Ratio {
    /// `num / den`, degraded to a bound by a capped operand.
    pub fn of(num: Capped, den: Capped) -> Ratio {
        let q = num.value / den.value;
        match (num.reached, den.reached) {
            (true, true) => Ratio::Measured(q),
            (false, true) => Ratio::Above(q),
            (true, false) => Ratio::Below(q),
            (false, false) => Ratio::Unbounded,
        }
    }

    /// Render as `27.0x`, `>27.0x`, `<0.3x` or `-`.
    pub fn show(&self, decimals: usize, unit: &str) -> String {
        match self {
            Ratio::Measured(q) => format!("{q:.decimals$}{unit}"),
            Ratio::Above(q) => format!(">{q:.decimals$}{unit}"),
            Ratio::Below(q) => format!("<{q:.decimals$}{unit}"),
            Ratio::Unbounded => "-".into(),
        }
    }
}

/// What every training run of an experiment starts from.
#[derive(Clone, Copy)]
struct Case {
    sys: PaperSystem,
    scale: GenScale,
    model: ModelScale,
    seed: u64,
}

impl Case {
    fn new(ctx: &Ctx, sys: PaperSystem, quick_frames: usize, model: ModelScale) -> Case {
        Case { sys, scale: ctx.gen_scale(quick_frames), model, seed: ctx.seed }
    }

    /// One case per system of a multi-system experiment.
    fn each(ctx: &Ctx, default: &[PaperSystem], quick_frames: usize, model: ModelScale) -> Vec<Case> {
        ctx.systems_or(default).into_iter().map(|sys| Case::new(ctx, sys, quick_frames, model)).collect()
    }

    /// Freshly generated data and an untrained model.
    fn setup(&self) -> ExperimentSetup {
        setup(self.sys, &self.scale, self.model, self.seed)
    }

    fn name(&self) -> &'static str {
        self.sys.preset().name
    }

    fn note(&self) -> String {
        format!("{} frames/temperature, model {:?}", self.scale.frames_per_temperature, self.model)
    }
}

fn train_cfg(batch_size: usize, max_epochs: usize, eval_frames: usize) -> TrainConfig {
    TrainConfig { batch_size, max_epochs, eval_frames, ..Default::default() }
}

fn test_rmse(out: &TrainOutcome) -> f64 {
    out.final_test.expect("setup() holds out a test split").combined()
}

/// Whether `ok(earlier, later)` holds along the whole sequence.
fn ordered(v: &[f64], ok: fn(f64, f64) -> bool) -> bool {
    v.windows(2).all(|w| ok(w[0], w[1]))
}

/// The accuracy bar of Table 1, Table 4 and Fig 7a: Adam bs-1 trains
/// for a fixed epoch budget, and the best `metric` its history ever
/// reached, loosened by `slack`, is what every other run must meet.
struct AdamBar {
    target: f64,
    /// First epoch at which Adam itself met the bar.
    epoch: usize,
    /// Adam's wall-clock seconds at that epoch.
    wall_s: f64,
    run: TrainOutcome,
}

fn adam_bar(
    case: &Case,
    budget: usize,
    eval_frames: usize,
    metric: fn(&Metrics) -> f64,
    slack: f64,
) -> AdamBar {
    let run = run_adam(&mut case.setup(), train_cfg(1, budget, eval_frames), false);
    let epochs = &run.history.epochs;
    let target = epochs.iter().map(|r| metric(&r.train)).fold(f64::INFINITY, f64::min) * slack;
    let first = epochs.iter().find(|r| metric(&r.train) <= target);
    let (epoch, wall_s) = first.map_or((budget, run.wall_s), |r| (r.epoch, r.wall_s));
    AdamBar { target, epoch, wall_s, run }
}

/// One step of the cumulative §5.3 system-optimization ladder.
struct OptLevel {
    name: &'static str,
    /// Tape autograd, or the handwritten derivative kernels (opt1).
    backend: Backend,
    /// Kernel fusion, the `torch.compile` analogue (opt2).
    fusion: bool,
    /// The custom fused `P`-update kernel with `P·g` caching (opt3).
    fused_p: bool,
}

const LADDER: [OptLevel; 4] = [
    OptLevel { name: "baseline (autograd)", backend: Backend::Tape, fusion: false, fused_p: false },
    OptLevel { name: "opt1 (+manual kernels)", backend: Backend::Manual, fusion: false, fused_p: false },
    OptLevel { name: "opt2 (+fusion)", backend: Backend::Manual, fusion: true, fused_p: false },
    OptLevel { name: "opt3 (+P kernel & Pg cache)", backend: Backend::Manual, fusion: true, fused_p: true },
];

impl OptLevel {
    /// Run `f` with the process-global fusion flag at this level's
    /// setting and put back what it was, also on unwind, so the other
    /// experiments of the process do not inherit it.
    fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                kernel::set_fusion_enabled(self.0);
            }
        }
        let _restore = Restore(kernel::fusion_enabled());
        kernel::set_fusion_enabled(self.fusion);
        f()
    }

    fn fekf_config(&self) -> FekfConfig {
        FekfConfig { fused: self.fused_p, ..FekfConfig::default() }
    }

    /// FEKF from a fresh setup at this level.
    fn run_fekf(&self, case: &Case, cfg: TrainConfig) -> TrainOutcome {
        let cfg = TrainConfig { backend: self.backend, ..cfg };
        self.scope(|| run_fekf(&mut case.setup(), cfg, self.fekf_config()))
    }
}

/// Per-epoch energy RMSE of three runs, one column each, and the claim
/// Fig 4 and the LR-scaling ablation share: of the factors {1, √bs, bs}
/// the middle one ends at the lowest energy RMSE.
fn sqrt_bs_sweep(
    labels: [&str; 3],
    runs: &[TrainHistory; 3],
    epochs: impl Iterator<Item = usize>,
    decimals: usize,
    (text, paper): (&str, &str),
) -> (Table, Claim) {
    let mut t = Table::new(&["epoch", labels[0], labels[1], labels[2]]);
    for e in epochs {
        let [a, b, c] = runs.each_ref().map(|h| match h.epochs.get(e) {
            Some(r) => format!("{:.decimals$}", r.train.energy_rmse),
            None => "-".into(),
        });
        t.row(&[&(e + 1), &a, &b, &c]);
    }
    let last = runs.each_ref().map(|h| h.last().map_or(f64::NAN, |r| r.train.energy_rmse));
    let measured = format!("final energy RMSE {:.4} / {:.4} / {:.4}", last[0], last[1], last[2]);
    (t, Claim::new(Exact, text, paper, measured, last[1] < last[0] && last[1] < last[2]))
}

/// Table 1 (paper §1): train Adam bs-1 to its converged Energy RMSE
/// (the best its history reached, +2 %), then count the epochs bs 32
/// and 64 (learning rate scaled by √bs) need to reach the same Energy
/// RMSE; "-" marks runs that never do within the cap.
fn table1(ctx: &Ctx) -> Outcome {
    let budget = if ctx.paper_scale { 60 } else { 40 };
    let cap = budget * 10;
    let cases = Case::each(ctx, &[Al], 32, ctx.model_scale(ModelScale::Small));
    let mut t =
        Table::new(&["System", "Energy RMSE (eV)", "bs 1", "bs 32", "bs 64", "growth 32/1", "growth 64/32"]);
    let mut rows = Vec::new();
    for case in &cases {
        let bar = adam_bar(case, budget, 48, |m| m.energy_rmse, 1.02);
        let epochs_at = |bs: usize| {
            let out = run_adam(&mut case.setup(), train_cfg(bs, cap, 48), true);
            let hit = out.history.epochs.iter().find(|r| r.train.energy_rmse <= bar.target);
            Capped { value: hit.map_or(cap, |r| r.epoch) as f64, reached: hit.is_some() }
        };
        let epochs = [Capped::reached(bar.epoch as f64), epochs_at(32), epochs_at(64)];
        let [e1, e32, e64] = epochs.map(|e| if e.reached { e.value.to_string() } else { "-".into() });
        let growth = [Ratio::of(epochs[1], epochs[0]), Ratio::of(epochs[2], epochs[1])];
        let [g32, g64] = growth.map(|g| g.show(1, "x"));
        t.row(&[&case.name(), &format!("{:.4}", bar.target), &e1, &e32, &e64, &g32, &g64]);
        rows.push(epochs);
    }
    let scale = format!("{}, bs-1 budget {budget} epochs, cap {cap}", cases[0].note());
    Outcome { scale, tables: vec![t], claims: table1_claims(&rows) }
}

/// `rows`: epochs to the bar at bs 1, 32 and 64, per system.
fn table1_claims(rows: &[[Capped; 3]]) -> Vec<Claim> {
    let growth = |text: &str, paper: &str, hi: usize, lo: usize| {
        let ratios: Vec<Ratio> = rows.iter().map(|e| Ratio::of(e[hi], e[lo])).collect();
        Claim::ratios(Exact, text, paper, &ratios, 1, |g| g > 1.0)
    };
    vec![
        growth("Adam bs-32 needs more epochs than bs-1 to reach the bs-1 energy RMSE", "12.1–25.1x", 1, 0),
        growth("the epoch count keeps growing from bs 32 to bs 64", "≈2x", 2, 1),
    ]
}

fn table3(ctx: &Ctx) -> Outcome {
    let frames = ctx.gen_scale(60).frames_per_temperature;
    let mut t = Table::new(&[
        "System", "Temperatures (K)", "dt (fs)", "# snapshots (paper)", "# snapshots (ours)", "atoms (paper)",
        "atoms (ours)", "oracle potential",
    ]);
    let mut atoms = Vec::new();
    for sys in PaperSystem::ALL {
        let p = sys.preset();
        let (state, pot) = p.instantiate();
        let temps: Vec<String> = p.temperatures.iter().map(|t| format!("{t:.0}")).collect();
        let ours = frames * p.temperatures.len();
        t.row(&[
            &p.name, &temps.join(","), &format!("{:.0}", p.dt), &p.paper_snapshots, &ours, &p.paper_atoms,
            &state.n_atoms(), &pot.name(),
        ]);
        atoms.push((p.name, p.paper_atoms, state.n_atoms()));
    }
    let scale = format!("{frames} frames/temperature");
    Outcome { scale, tables: vec![t], claims: vec![table3_claim(&atoms)] }
}

/// `atoms`: (system, paper atom count, ours).
fn table3_claim(atoms: &[(&str, usize, usize)]) -> Claim {
    let differ: Vec<&str> = atoms.iter().filter(|a| a.1 != a.2).map(|a| a.0).collect();
    let text = "atom counts equal the paper's but for Si, Mg, HfO2 (no PBC-compatible supercell of its size)";
    let equal = atoms.len() - differ.len();
    let measured = format!("{equal} of {} equal; differ: {}", atoms.len(), differ.join(", "));
    Claim::new(Exact, text, "8 systems", measured, differ == ["Si", "Mg", "HfO2"])
}

/// Table 4: Adam bs-1 trains for a fixed epoch budget; the best
/// combined RMSE of its history (+5 %) is the bar and its converged
/// epoch the first within it. Minibatch FEKF then trains to that bar;
/// the convergence ratio is FEKF epochs / Adam epochs. The batch is
/// scaled with the dataset (paper: bs 32 on 10k–70k frames).
fn table4(ctx: &Ctx) -> Outcome {
    let budget = if ctx.paper_scale { 40 } else { 20 };
    let bs = if ctx.paper_scale { 32 } else { 8 };
    let cases = Case::each(ctx, &[Al, NaCl], 100, ctx.model_scale(ModelScale::Small));
    let mut t =
        Table::new(&["System", "Adam epochs", "conv. ratio", "Adam RMSE train/test", "FEKF RMSE train/test"]);
    let (mut ratios, mut tests) = (Vec::new(), Vec::new());
    for case in &cases {
        let bar = adam_bar(case, budget, 48, Metrics::combined, 1.05);
        let cfg = TrainConfig { target: Some(bar.target), ..train_cfg(bs, budget * 2, 48) };
        let fekf = run_fekf(&mut case.setup(), cfg, FekfConfig::default());
        let fekf_epochs = Capped { value: fekf.epochs_run as f64, reached: fekf.converged };
        let ratio = Ratio::of(fekf_epochs, Capped::reached(bar.epoch as f64));
        let rmse = |out: &TrainOutcome| format!("{:.4}/{:.4}", out.final_train.combined(), test_rmse(out));
        t.row(&[&case.name(), &bar.epoch, &ratio.show(3, ""), &rmse(&bar.run), &rmse(&fekf)]);
        ratios.push(ratio);
        tests.push((case.name(), test_rmse(&bar.run), test_rmse(&fekf)));
    }
    let scale = format!("{}, Adam budget {budget} epochs, FEKF bs {bs}", cases[0].note());
    Outcome { scale, tables: vec![t], claims: table4_claims(&ratios, &tests) }
}

/// `ratios`: FEKF epochs / Adam epochs; `tests`: (system, Adam's test
/// RMSE, FEKF's).
fn table4_claims(ratios: &[Ratio], tests: &[(&str, f64, f64)]) -> Vec<Claim> {
    let shown: Vec<String> =
        tests.iter().map(|(sys, adam, fekf)| format!("{sys} {fekf:.4} vs {adam:.4}")).collect();
    vec![
        Claim::ratios(
            Exact,
            "minibatch FEKF reaches Adam bs-1's accuracy in under 0.3x the epochs",
            "0.071–0.226",
            ratios,
            3,
            |r| r < 0.3,
        ),
        Claim::new(
            Exact,
            "no generalisation gap: FEKF's test RMSE is at or below Adam's",
            "on all 8 systems",
            format!("FEKF vs Adam: {}", shown.join(", ")),
            tests.iter().all(|(_, adam, fekf)| fekf <= adam),
        ),
    ]
}

/// Table 5: RLEKF bs-1 sets the accuracy bar (+10 %) and the 1x time;
/// FEKF runs at growing batch sizes on growing device counts to the
/// same bar. Device counts beyond the physical cores cannot speed a
/// small box up, so the table also prints the modeled per-iteration
/// communication time on the paper's A100/RoCE cluster.
fn table5(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Cu), 20, ctx.model_scale(ModelScale::Medium));
    let budget = 2;
    let mut s = case.setup();
    let n_params = s.model.n_params();
    let rlekf = run_rlekf(&mut s, train_cfg(1, budget, 32), 10240);
    let target = rlekf.final_train.combined() * 1.1;
    let base = Capped::reached(rlekf.wall_s);

    let mut t = Table::new(&[
        "config (bs, devices)", "wall time", "speedup", "epochs", "reached target", "comm/iter (measured)",
        "comm time/iter (A100 model)",
    ]);
    t.row(&[&"RLEKF bs 1 (1 dev)", &base.secs(), &"1.0x", &rlekf.epochs_run, &"ref", &"0 B", &"-"]);
    let cluster = ClusterModel::paper_cluster();
    let mut speedups = Vec::new();
    for (bs, devs) in [(16usize, 1usize), (32, 2), (64, 2)] {
        let cfg = TrainConfig { target: Some(target), eval_every: 4, ..train_cfg(bs, budget * 10, 32) };
        let out = run_fekf_distributed(&mut case.setup(), cfg, FekfConfig::default(), devs);
        let comm_per_iter = out.comm_bytes_per_rank.checked_div(out.iterations as usize).unwrap_or(0);
        let modeled = cluster.time(&fekf_iteration_stats(n_params, devs, 4));
        let speedup = Ratio::of(base, Capped::wall(&out));
        t.row(&[
            &format!("FEKF bs {bs} ({devs} dev)"),
            &Capped::wall(&out).secs(),
            &speedup.show(1, "x"),
            &out.epochs_run,
            &if out.converged { "yes" } else { "cap" },
            &format!("{:.2} KB", comm_per_iter as f64 / 1024.0),
            &format!("{:.1} µs", modeled * 1e6),
        ]);
        speedups.push(speedup);
    }
    let text = "FEKF reaches RLEKF's accuracy in less wall time at every (batch, devices) configuration";
    Outcome {
        scale: format!("{}, {}, RLEKF budget {budget} epochs", case.name(), case.note()),
        tables: vec![t],
        claims: vec![Claim::ratios(Timed, text, "54x / 72x / 93x", &speedups, 1, |s| s > 1.0)],
    }
}

/// Fig 4: sweeps the weight-increment factor over {1, √bs, bs} (Eq. 2, §3.2).
fn fig4(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Al), 40, ctx.model_scale(ModelScale::Small));
    let (bs, epochs) = (16, 6);
    let runs = [QuasiLr::One, QuasiLr::SqrtBs, QuasiLr::LinearBs].map(|quasi_lr| {
        let fekf_cfg = FekfConfig { quasi_lr, ..FekfConfig::default() };
        run_fekf(&mut case.setup(), train_cfg(bs, epochs, 48), fekf_cfg).history
    });
    let text = "the √bs factor ends at a lower energy RMSE than factor 1 and factor bs";
    let claim = (text, "√bs fastest; bs destabilizes");
    let labels = ["factor 1", "factor sqrt(bs)", "factor bs"];
    let (table, claim) = sqrt_bs_sweep(labels, &runs, 0..epochs, 5, claim);
    let scale = format!("{}, bs {bs}, {}", case.name(), case.note());
    Outcome { scale, tables: vec![table], claims: vec![claim] }
}

/// Fig 7a (§5.2): Adam bs-1 trains for a fixed budget and its best
/// combined RMSE (+5 %) sets the bar; RLEKF bs-1 (the paper's 1x), FEKF
/// at the bottom of the optimization ladder and FEKF at its top then
/// train to the bar. Adam's own time is when its history first met it.
fn fig7a(ctx: &Ctx) -> Outcome {
    let (adam_budget, bs) = (30, 16);
    let cases = Case::each(ctx, &[Al], 60, ctx.model_scale(ModelScale::Medium));
    let mut t = Table::new(&[
        "System", "Adam bs1", "RLEKF bs1", "FEKF (baseline)", "FEKF (optimized)", "RLEKF/FEKF-opt",
        "baseline/opt",
    ]);
    let (mut vs_rlekf, mut vs_baseline) = (Vec::new(), Vec::new());
    for case in &cases {
        let bar = adam_bar(case, adam_budget, 32, Metrics::combined, 1.05);
        let to_target = TrainConfig { target: Some(bar.target), eval_every: 5, ..train_cfg(bs, 60, 32) };
        // RLEKF checks the bar mid-epoch, every 40 samples.
        let rlekf_cfg = TrainConfig { batch_size: 1, max_epochs: 6, eval_every: 40, ..to_target };
        let rlekf = Capped::wall(&run_rlekf(&mut case.setup(), rlekf_cfg, 10240));
        let optimized = Capped::wall(&LADDER[3].run_fekf(case, to_target));
        let baseline_cfg = TrainConfig { max_epochs: 8, eval_every: 2, ..to_target };
        let baseline = Capped::wall(&LADDER[0].run_fekf(case, baseline_cfg));
        let speedups = [Ratio::of(rlekf, optimized), Ratio::of(baseline, optimized)];
        t.row(&[
            &case.name(), &fmt_secs(bar.wall_s), &rlekf.secs(), &baseline.secs(), &optimized.secs(),
            &speedups[0].show(1, "x"), &speedups[1].show(1, "x"),
        ]);
        vs_rlekf.push(speedups[0]);
        vs_baseline.push(speedups[1]);
    }
    let scale = format!("{}, Adam budget {adam_budget} epochs, FEKF bs {bs}", cases[0].note());
    Outcome { scale, tables: vec![t], claims: fig7a_claims(&vs_rlekf, &vs_baseline) }
}

/// Per system: RLEKF seconds / optimized-FEKF seconds, and baseline-FEKF
/// seconds / optimized-FEKF seconds, all to Adam's bar.
fn fig7a_claims(vs_rlekf: &[Ratio], vs_baseline: &[Ratio]) -> Vec<Claim> {
    let text = [
        "optimized FEKF reaches Adam's accuracy in less wall time than RLEKF",
        "the system optimizations make FEKF faster end to end",
    ];
    vec![
        Claim::ratios(Timed, text[0], "11.61x on average", vs_rlekf, 1, |s| s > 1.0),
        Claim::ratios(Timed, text[1], "a further 3.25x", vs_baseline, 1, |s| s > 1.0),
    ]
}

/// Launches of one FEKF iteration at `level`: the update driven by the
/// energy predictions, and the four driven by the force predictions,
/// through the trainer's own KF-target path.
fn launches(s: &ExperimentSetup, batch: &[usize], level: &OptLevel) -> (u64, u64) {
    let (model, backend) = (&s.model, level.backend);
    let n_params = model.n_params();
    let mut opt = Fekf::new(&model.layer_sizes(), batch.len(), level.fekf_config());
    let (mut grads, mut coeffs) = (Vec::new(), Vec::new());
    // One segment per phase: batch-reduce each slot's gradient and
    // absolute error, then the phase's KF updates as the trainer runs
    // them — one chained call over its slots.
    let [energy, force] = level.scope(|| {
        [false, true].map(|force| {
            let n_slots = if force { 4 } else { 1 };
            let ((), launched) = kernel::count_region(|| {
                let (mut acc, mut abes) = (vec![0.0; n_slots * n_params], vec![0.0; n_slots]);
                for &i in batch {
                    let frame = &s.train.frames[i];
                    let pass = model.forward(frame);
                    if force {
                        let forces = model.forces(&pass);
                        accumulate_force_targets(
                            model, &pass, &forces, frame, n_slots, backend, &mut grads, &mut coeffs, &mut acc,
                            &mut abes,
                        );
                    } else {
                        abes[0] += accumulate_energy_target(model, &pass, backend, &mut grads, &mut acc);
                    }
                }
                let mut delta = vec![0.0; n_params];
                opt.step_slots(&acc, &abes, 1.0 / batch.len() as f64, &mut delta, |_| {});
            });
            launched
        })
    });
    (energy, force)
}

/// Fig 7b: kernel launches of one iteration at each ladder level.
fn fig7b(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Al), 8, ctx.model_scale(ModelScale::Small));
    let s = case.setup();
    let batch: Vec<usize> = (0..8.min(s.train.len())).collect();
    let (table, claim) = fig7b_outcome(&LADDER.each_ref().map(|level| launches(&s, &batch, level)));
    let scale = format!("{}, bs {}, model {:?}", case.name(), batch.len(), case.model);
    Outcome { scale, tables: vec![table], claims: vec![claim] }
}

/// `counts`: (energy, force) launches per ladder level; the force
/// segment already contains all four group updates.
fn fig7b_outcome(counts: &[(u64, u64); 4]) -> (Table, Claim) {
    let totals = counts.map(|(e, f)| (e + f) as f64);
    let mut t = Table::new(&["config", "energy update", "force update", "total (1E + 4F)"]);
    for (level, (e, f)) in LADDER.iter().zip(counts) {
        let share = 100.0 * (e + f) as f64 / totals[0];
        t.row(&[&level.name, e, f, &format!("{} ({share:.0}% of baseline)", e + f)]);
    }
    let fewer = 100.0 * (1.0 - totals[3] / totals[0]);
    let claim = Claim::new(
        Exact,
        "every optimization step launches fewer kernels per iteration than the one before",
        "1243 → 455 (64 % fewer)",
        format!("{} ({fewer:.1} % fewer)", totals.map(|t| t.to_string()).join(" → ")),
        ordered(&totals, |before, after| after < before),
    );
    (t, claim)
}

/// Fig 7c: each iteration splits into the network forward to
/// predictions and errors, the gradient computation for the EKF update,
/// and the KF calculation flow (the bar shades of the figure).
fn fig7c(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Al), 16, ctx.model_scale(ModelScale::Small));
    let bs = 16;
    let phases = LADDER.each_ref().map(|level| {
        let out = level.run_fekf(&case, train_cfg(bs, 1, 8));
        [out.phases.forward, out.phases.gradient, out.phases.optimizer]
            .map(|d| d.as_secs_f64() * 1e3 / out.iterations.max(1) as f64)
    });
    let total = |l: usize| phases[l].iter().sum::<f64>();
    let mut t = Table::new(&[
        "config", "forward ms/iter", "gradient ms/iter", "KF ms/iter", "total ms/iter", "speedup vs baseline",
    ]);
    for (l, level) in LADDER.iter().enumerate() {
        let p = phases[l];
        let [fwd, grad, kf, all] = [p[0], p[1], p[2], total(l)].map(|ms| format!("{ms:.1}"));
        t.row(&[&level.name, &fwd, &grad, &kf, &all, &format!("{:.2}x", total(0) / total(l))]);
    }
    let speedup = |text: &str, paper: &str, before: f64, after: f64| {
        Claim::ratios(Timed, text, paper, &[Ratio::Measured(before / after)], 2, |s| s > 1.0)
    };
    let gradient = "the handwritten derivative kernels shrink the gradient phase (baseline → opt1)";
    let kf = "the custom P kernel shrinks the KF phase (opt2 → opt3)";
    Outcome {
        scale: format!("{}, bs {bs}, model {:?}", case.name(), case.model),
        tables: vec![t],
        claims: vec![
            speedup("all optimizations together make the iteration faster", "3.48x", total(0), total(3)),
            speedup(gradient, "shrinks", phases[0][1], phases[1][1]),
            speedup(kf, "shrinks", phases[2][2], phases[3][2]),
        ],
    }
}

/// §5.3 memory accounting of the paper's network.
fn memory(_: &Ctx) -> Outcome {
    // Single-species paper network layer sizes (embedding [1→25,
    // 25→25, 25→25], fitting [400→50, 50→50, 50→50, 50→1]).
    let layers = [50usize, 650, 650, 20050, 2550, 2550, 51];
    let report = memory_report(&BlockLayout::from_layer_sizes(&layers, 10240));
    let bs = 32;
    let mut blocks = Table::new(&["block", "size", "bytes", "paper block", "paper MB"]);
    let paper_blocks = [(1350usize, 13.90), (10240, 800.0), (9760, 726.76), (5301, 214.39)];
    for (i, (n, &bytes)) in report.block_sizes.iter().zip(&report.block_bytes).enumerate() {
        let (pn, pmb) = paper_blocks.get(i).copied().unwrap_or((0, 0.0));
        blocks.row(&[&format!("P{}", i + 1), n, &fmt_mb(bytes), &pn, &format!("{pmb:.2} MB")]);
    }
    let mut totals = Table::new(&["quantity", "this repo", "paper"]);
    let replicas = format!("Naive-EKF P replicas (bs {bs})");
    for (quantity, bytes, paper) in [
        ("resident P (all blocks)", report.total_bytes, "1755 MB"),
        ("peak, fused update (opt3)", report.fused_peak_bytes, "1805 MB (P + weights + intermediates)"),
        ("peak, unfused update (framework)", report.unfused_peak_bytes, "3405 MB (P + 2×max block)"),
        (replicas.as_str(), report.total_bytes * bs, "unbearable for large batches (§3.3)"),
    ] {
        totals.row(&[&quantity, &fmt_mb(bytes), &paper]);
    }
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let extra = report.unfused_peak_bytes - report.fused_peak_bytes;
    let largest = report.block_bytes.iter().copied().max().unwrap_or(0);
    let blocks_claim = Claim::new(
        Exact,
        "the 10240 gather/split rule gives four P blocks of the paper's weight (its net: +100 parameters)",
        "{1350, 10240, 9760, 5301}; 1755 MB",
        format!("{:?}; {}", report.block_sizes, fmt_mb(report.total_bytes)),
        report.block_sizes == [1350, 10240, 9810, 5151] && (mb(report.total_bytes) - 1755.0).abs() < 50.0,
    );
    let peak_claim = Claim::new(
        Exact,
        "the framework-path P update peaks two copies of the largest block above the fused kernel",
        "3405 − 1805 = 1600 MB",
        format!("{} above the fused peak of {}", fmt_mb(extra), fmt_mb(report.fused_peak_bytes)),
        extra == 2 * largest && mb(extra) == 1600.0,
    );
    let scale = format!("paper network ({} parameters), blocksize 10240", layers.iter().sum::<usize>());
    Outcome { scale, tables: vec![blocks, totals], claims: vec![blocks_claim, peak_claim] }
}

/// §5.3 scalability: FEKF communicates only the batch-reduced gradient
/// once per weight update (1 energy + 4 force) plus `O(r)` scalar
/// absolute errors; the replicated `P` is never sent. A fusiform
/// Naive-EKF that kept per-sample `P`s consistent would move the
/// block-diagonal `P` instead.
fn scaling(_: &Ctx) -> Outcome {
    let n_params = 26_651; // the paper's parameter count
    let blocks = [1350usize, 10240, 9760, 5301];
    let cluster = ClusterModel::paper_cluster();
    let mut t = Table::new(&[
        "#devices", "FEKF bytes/rank", "FEKF time (model)", "Adam bytes/rank", "Naive-EKF P bytes/rank",
        "Naive/FEKF ratio",
    ]);
    // Over the multi-device rows: FEKF's largest volume, the largest
    // share of it spent on the absolute errors, the smallest Naive/FEKF ratio.
    let (mut most_bytes, mut abe_share, mut least_ratio) = (0, 0.0f64, f64::INFINITY);
    for r in [1usize, 2, 4, 8, 16] {
        let stats = fekf_iteration_stats(n_params, r, 4);
        let fekf = stats.bytes_sent_per_rank;
        // Adam allreduces one loss gradient per iteration.
        let adam = ring_allreduce_stats(n_params, r).bytes_sent_per_rank;
        let naive = naive_ekf_p_stats(&blocks, r).bytes_sent_per_rank;
        let time = format!("{:.1} µs", cluster.time(&stats) * 1e6);
        let ratio = if fekf > 0 { format!("{:.0}x", naive as f64 / fekf as f64) } else { "-".into() };
        t.row(&[&r, &fmt_mb(fekf), &time, &fmt_mb(adam), &fmt_mb(naive), &ratio]);
        if r > 1 {
            most_bytes = most_bytes.max(fekf);
            abe_share = abe_share.max(ring_allreduce_stats(5, r).bytes_sent_per_rank as f64 / fekf as f64);
            least_ratio = least_ratio.min(naive as f64 / fekf as f64);
        }
    }
    let gradient = n_params * 8;
    let volume = Claim::new(
        Exact,
        "FEKF moves five ≈0.2 MB gradient allreduces per iteration, each < 2·Mem(g) per rank; ABE adds < 1 %",
        "g ≈ 0.2 MB; ABE O(r) scalars",
        format!("g = {}; ≤ {}/rank; ABE ≤ {:.3} %", fmt_mb(gradient), fmt_mb(most_bytes), 100.0 * abe_share),
        (190_000..220_000).contains(&gradient) && most_bytes < 5 * 2 * gradient && abe_share < 0.01,
    );
    let text = "P is never sent: keeping Naive-EKF's replicas coherent would move over 1000x FEKF's volume";
    let paper = "Mem(P) ≈ 1.7 GB vs Mem(g) ≈ 0.2 MB";
    let replicas = Claim::new(Exact, text, paper, format!("≥ {least_ratio:.0}x"), least_ratio > 1000.0);
    let scale = format!("{n_params} parameters; 1 energy + 4 force updates per iteration");
    Outcome { scale, tables: vec![t], claims: vec![volume, replicas] }
}

/// The two FEKF ablations train bs 8 for 4 epochs with every guard off.
fn ablation_cfg() -> TrainConfig {
    train_cfg(8, 4, 48)
}

/// FEKF under [`ablation_cfg`] at a `P` blocksize: the run and the
/// bytes of its `P`.
fn ablation_fekf(case: &Case, blocksize: usize) -> (TrainOutcome, usize) {
    let (cfg, mut s) = (ablation_cfg(), case.setup());
    let fekf_cfg = FekfConfig { blocksize, ..FekfConfig::default() };
    let mut opt = Fekf::new(&s.model.layer_sizes(), cfg.batch_size, fekf_cfg);
    let p_mem = opt.core().p.memory_bytes();
    let out = Trainer::new(cfg)
        .train_fekf_robust(&mut s.model, &mut opt, &s.train, Some(&s.test), &RobustConfig::off())
        .expect("a run with every guard off cannot fail");
    (out, p_mem)
}

fn ablation_scale(case: &Case) -> String {
    let cfg = ablation_cfg();
    format!("{}, bs {}, {} epochs, {}", case.name(), cfg.batch_size, cfg.max_epochs, case.note())
}

/// Funnel vs fusiform: same batch size, same epoch budget, same data
/// for the two multi-sample EKF designs of §3.1 / Table 2.
fn ablation_dataflow(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Al), 60, ctx.model_scale(ModelScale::Small));
    let cfg = ablation_cfg();
    let (funnel, funnel_mem) = ablation_fekf(&case, 10240);
    let mut s = case.setup();
    let mut naive = NaiveEkf::new(&s.model.layer_sizes(), 10240, cfg.batch_size, None, true);
    let fusiform_mem = naive.p_memory_bytes();
    let fusiform = Trainer::new(cfg)
        .train_naive_ekf(&mut s.model, &mut naive, &s.train, Some(&s.test), &RobustConfig::off())
        .expect("a run with every guard off cannot fail");

    let mut t = Table::new(&[
        "dataflow", "train RMSE (E+F)", "test RMSE (E+F)", "wall time", "P memory", "P communicated?",
    ]);
    let replicated = format!("{} ({}x)", fmt_mb(fusiform_mem), cfg.batch_size);
    for (name, out, mem, sent) in [
        ("funnel (FEKF)", &funnel, fmt_mb(funnel_mem), "no (replicated)"),
        ("fusiform (Naive-EKF)", &fusiform, replicated, "would be required"),
    ] {
        let [train, test] = [out.final_train.combined(), test_rmse(out)].map(|v| format!("{v:.4}"));
        t.row(&[&name, &train, &test, &fmt_secs(out.wall_s), &mem, &sent]);
    }
    let (funnel_rmse, fusiform_rmse) = (funnel.final_train.combined(), fusiform.final_train.combined());
    let parity = Claim::new(
        Exact,
        "the funnel's early reduction costs no accuracy: its train RMSE is within 1.5x of the fusiform's",
        "comparable convergence",
        format!("funnel {funnel_rmse:.4} vs fusiform {fusiform_rmse:.4}"),
        funnel_rmse <= 1.5 * fusiform_rmse,
    );
    let measured = format!("{} vs {}", fmt_mb(fusiform_mem), fmt_mb(funnel_mem));
    let copies = fusiform_mem == cfg.batch_size * funnel_mem;
    let memory = Claim::new(Exact, "the fusiform design holds bs copies of P", "bs x", measured, copies);
    Outcome { scale: ablation_scale(&case), tables: vec![t], claims: vec![parity, memory] }
}

/// Blocksize sweep: smaller blocks discard more cross-layer
/// correlations but cost `Σ n_b²` per update, which shrinks with them.
fn ablation_blocksize(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Al), 60, ctx.model_scale(ModelScale::Small));
    let model = case.setup().model;
    let mut t =
        Table::new(&["blocksize", "#blocks", "P memory", "train RMSE (E+F)", "KF time share", "wall time"]);
    let mut rows = Vec::new();
    for blocksize in [64usize, 512, 2048, usize::MAX] {
        let effective = blocksize.min(model.n_params());
        let (out, p_mem) = ablation_fekf(&case, effective);
        let kf_share = out.phases.optimizer.as_secs_f64() / out.phases.total().as_secs_f64();
        let name = if blocksize == usize::MAX { "full".into() } else { blocksize.to_string() };
        let n_blocks = BlockLayout::from_layer_sizes(&model.layer_sizes(), effective).n_blocks();
        let rmse = out.final_train.combined();
        let [rmse_cell, share_cell] = [format!("{rmse:.4}"), format!("{:.0}%", kf_share * 100.0)];
        t.row(&[&name, &n_blocks, &fmt_mb(p_mem), &rmse_cell, &share_cell, &fmt_secs(out.wall_s)]);
        rows.push((rmse, kf_share));
    }
    let (rmse, share): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
    let arrows = |v: Vec<String>| v.join(" → ");
    let accuracy = Claim::new(
        Exact,
        "larger blocks keep more curvature: the train RMSE never rises with the blocksize",
        "10240 is the sweet spot (§4)",
        arrows(rmse.iter().map(|v| format!("{v:.4}")).collect()),
        ordered(&rmse, |smaller, larger| larger <= smaller),
    );
    let cost = Claim::new(
        Timed,
        "and cost more: the KF share of the iteration never falls with the blocksize",
        "quadratic per-block cost",
        arrows(share.iter().map(|v| format!("{:.0}%", 100.0 * v)).collect()),
        ordered(&share, |smaller, larger| larger >= smaller),
    );
    Outcome { scale: ablation_scale(&case), tables: vec![t], claims: vec![accuracy, cost] }
}

/// LR-scaling ablation (§1): "the default setting (scaling the learning
/// rate by multiplying with the square root of minibatch size)
/// converges faster than other heuristics such as … multiplying the
/// minibatch size".
fn ablation_lr_scaling(ctx: &Ctx) -> Outcome {
    let case = Case::new(ctx, ctx.system_or(Al), 40, ctx.model_scale(ModelScale::Small));
    let (bs, epochs) = (32usize, 20usize);
    let runs = [1.0, (bs as f64).sqrt(), bs as f64].map(|factor| {
        let mut s = case.setup();
        let mut adam_cfg = AdamConfig::default();
        adam_cfg.lr *= factor;
        let mut opt = Adam::new(s.model.n_params(), adam_cfg);
        let trainer = Trainer::new(train_cfg(bs, epochs, 48));
        let out = trainer.train_adam(&mut s.model, &mut opt, &s.train, Some(&s.test), &RobustConfig::off());
        out.expect("a run with every guard off cannot fail").history
    });
    let shown = (0..epochs).step_by(2.max(epochs / 10));
    let text = "√bs·lr ends at a lower energy RMSE than the unscaled and the bs-scaled rate";
    let claim = (text, "√bs is the best simple heuristic");
    let (table, claim) = sqrt_bs_sweep(["none (lr)", "sqrt(bs)·lr", "bs·lr"], &runs, shown, 4, claim);
    let scale = format!("{}, bs {bs}, {epochs} epochs, {}", case.name(), case.note());
    Outcome { scale, tables: vec![table], claims: vec![claim] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_train::metrics::EpochRecord;
    use Verdict::{NotReached, NotReproduced, Reproduced};

    fn verdicts(claims: &[Claim]) -> Vec<Verdict> {
        claims.iter().map(|c| c.verdict).collect()
    }

    #[test]
    fn a_capped_run_bounds_its_ratio_and_leaves_the_claim_undecided() {
        let (fast, slow) = (Capped::reached(10.0), Capped::reached(270.0));
        let hit_cap = Capped { value: 270.0, reached: false };
        let faster = |r: Ratio| Claim::ratios(Timed, "", "", &[r], 1, |s| s > 1.0);
        for (ratio, shown, verdict) in [
            (Ratio::of(slow, fast), "27.0x", Reproduced),
            (Ratio::of(fast, slow), "0.0x", NotReproduced),
            (Ratio::of(hit_cap, fast), ">27.0x", NotReached),
            (Ratio::of(fast, hit_cap), "<0.0x", NotReached),
            (Ratio::of(hit_cap, hit_cap), "-", NotReached),
        ] {
            assert_eq!((faster(ratio).measured.as_str(), faster(ratio).verdict), (shown, verdict));
        }
        assert_eq!((hit_cap.secs(), slow.secs()), (">270s".to_string(), "270s".to_string()));
        // One measured failure decides a claim whatever else is capped.
        let mixed = [Ratio::of(fast, slow), Ratio::of(hit_cap, fast)];
        assert_eq!(Claim::ratios(Timed, "", "", &mixed, 1, |s| s > 1.0).verdict, NotReproduced);
    }

    #[test]
    fn claim_evaluators_pass_and_fail_on_synthetic_rows() {
        let epochs = |e: [f64; 3]| [e.map(Capped::reached)];
        assert_eq!(verdicts(&table1_claims(&epochs([20.0, 300.0, 620.0]))), [Reproduced, Reproduced]);
        assert_eq!(verdicts(&table1_claims(&epochs([20.0, 208.0, 194.0]))), [Reproduced, NotReproduced]);
        let never = Capped { value: 400.0, reached: false };
        let capped = table1_claims(&[[Capped::reached(20.0), Capped::reached(208.0), never]]);
        assert_eq!((verdicts(&capped), capped[1].measured.as_str()), (vec![Reproduced, NotReached], ">1.9x"));

        let table4 = |ratio, adam, fekf| verdicts(&table4_claims(&[ratio], &[("Al", adam, fekf)]));
        assert_eq!(table4(Ratio::Measured(0.2), 0.15, 0.14), [Reproduced, Reproduced]);
        assert_eq!(table4(Ratio::Measured(0.45), 0.1434, 0.1435), [NotReproduced, NotReproduced]);
        assert_eq!(table4(Ratio::Above(2.0), 0.15, 0.15), [NotReached, Reproduced]);

        let history = |rmse: f64| TrainHistory {
            epochs: vec![EpochRecord {
                epoch: 1,
                train: Metrics { energy_rmse: rmse, energy_rmse_per_atom: 0.0, force_rmse: 0.0 },
                wall_s: 0.0,
            }],
        };
        let sweep = |last: [f64; 3]| {
            sqrt_bs_sweep(["1", "sqrt", "bs"], &last.map(history), 0..2, 2, ("", "")).1.verdict
        };
        assert_eq!((sweep([0.7, 0.5, 3.0]), sweep([0.13, 1.67, 1.55])), (Reproduced, NotReproduced));

        let counts = [(21554, 202576), (522, 2352), (66, 328), (59, 300)];
        let (table, claim) = fig7b_outcome(&counts);
        assert_eq!(table.rows[1], ["opt1 (+manual kernels)", "522", "2352", "2874 (1% of baseline)"]);
        assert_eq!((claim.verdict, claim.kind), (Reproduced, Exact));
        assert_eq!(fig7b_outcome(&[counts[0], counts[1], (660, 3280), counts[3]]).1.verdict, NotReproduced);

        let ordering = |vs_rlekf, vs_baseline| verdicts(&fig7a_claims(&[vs_rlekf], &[vs_baseline]));
        assert_eq!(ordering(Ratio::Measured(11.6), Ratio::Measured(3.25)), [Reproduced, Reproduced]);
        assert_eq!(ordering(Ratio::Measured(0.4), Ratio::Above(27.5)), [NotReproduced, NotReached]);
    }

    #[test]
    fn closed_form_experiments_print_the_closed_forms() {
        let column = |t: &Table, c: usize| -> Vec<String> { t.rows.iter().map(|r| r[c].clone()).collect() };
        let blocks = [1350usize, 10240, 9810, 5151];
        let resident: usize = blocks.iter().map(|n| n * n * 8).sum();
        let unfused = resident + 2 * 10240 * 10240 * 8;
        let mem = memory(&Ctx::default());
        assert_eq!(column(&mem.tables[0], 1), blocks.map(|n| n.to_string()));
        assert_eq!(column(&mem.tables[1], 1), [resident, resident, unfused, 32 * resident].map(fmt_mb));
        assert_eq!(fmt_mb(resident), "1750.56 MB");

        let comm = scaling(&Ctx::default());
        assert_eq!(column(&comm.tables[0], 5), ["-", "1726x", "1726x", "1726x", "1726x"]);
        let five_rings = 5 * ring_allreduce_stats(26_651, 4).bytes_sent_per_rank;
        let abe = ring_allreduce_stats(5, 4).bytes_sent_per_rank;
        assert_eq!(comm.tables[0].rows[2][1], fmt_mb(five_rings + abe));

        let inventory = table3(&Ctx::default());
        for (row, sys) in inventory.tables[0].rows.iter().zip(PaperSystem::ALL) {
            let p = sys.preset();
            let ours = p.instantiate().0.n_atoms();
            let expected = (p.name, &p.paper_atoms.to_string(), &ours.to_string());
            assert_eq!((row[0].as_str(), &row[5], &row[6]), expected);
        }
        for outcome in [mem, comm, inventory] {
            assert!(outcome.claims.iter().all(|c| c.kind == Exact && c.verdict == Reproduced));
        }
    }
}
