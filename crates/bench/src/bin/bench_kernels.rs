//! Machine-readable kernel benchmarks for the perf trajectory.
//!
//! Sweeps `DP_POOL_THREADS ∈ {1, 2, 4}` (via `dp_pool::set_threads`) over
//! the hot-path kernels and writes two JSON reports (schema in
//! `dp_bench::report`):
//!
//! * `BENCH_gemm.json`    — square GEMM and the tiled GEMV under the
//!   active backend, plus a per-backend `gemm/<backend>` /
//!   `gemv/<backend>` sweep of every backend this CPU supports
//! * `BENCH_p_update.json`— KF block `q = P·g` and the fused `P` update
//!
//! Whole-iteration timings are `bench_e2e`'s (`train_cu_small`,
//! `train_water_dp2`).
//!
//! Every report is stamped with the resolved `DP_BACKEND` and detected
//! CPU features (see `dp_bench::report`); an unsupported `DP_BACKEND`
//! exits 2 before any measurement.
//!
//! Flags: `--smoke` (one small shape per report, for CI),
//! `--paper` (adds the 10240 `P` block — ~800 MB resident),
//! `--out=DIR` (default `results/bench`).

use dp_bench::report::{measure, BenchReport};
use dp_optim::pmatrix::BlockP;
use dp_optim::BlockLayout;
use dp_tensor::Mat;
use std::path::PathBuf;

struct Opts {
    smoke: bool,
    paper: bool,
    out: PathBuf,
}

fn parse_opts() -> Opts {
    let mut o = Opts { smoke: false, paper: false, out: PathBuf::from("results/bench") };
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            o.smoke = true;
        } else if arg == "--paper" {
            o.paper = true;
        } else if let Some(v) = arg.strip_prefix("--out=") {
            o.out = PathBuf::from(v);
        } else if arg == "--help" || arg == "-h" {
            eprintln!("flags: --smoke --paper --out=DIR");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag '{arg}' (try --help)");
            std::process::exit(2);
        }
    }
    o
}

const THREADS: &[usize] = &[1, 2, 4];

fn det_mat(rows: usize, cols: usize, salt: u64) -> Mat {
    Mat::from_fn(rows, cols, |r, c| {
        (((r * 1315423911 + c * 2654435761 + salt as usize) % 1000) as f64) * 1e-3 - 0.5
    })
}

fn det_vec(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((i * 2246822519 + salt as usize) % 1000) as f64) * 1e-3 - 0.5)
        .collect()
}

fn bench_gemm(opts: &Opts) -> BenchReport {
    let mut rep = BenchReport::new("gemm");
    let gemm_sizes: &[usize] = if opts.smoke { &[128] } else { &[32, 128, 512, 2048] };
    let gemv_sizes: &[usize] = if opts.smoke { &[1024] } else { &[1024, 4096] };
    let samples = if opts.smoke { 3 } else { 7 };
    for &n in gemm_sizes {
        let a = det_mat(n, n, 1);
        let b = det_mat(n, n, 2);
        let mut c = Mat::zeros(n, n);
        for &t in THREADS {
            dp_pool::set_threads(t);
            let s = if n >= 2048 { 3 } else { samples };
            let (ns, k) = measure(s, || a.matmul_into(&b, &mut c, 0.0));
            rep.push("gemm", &[n, n, n], t, ns, k);
            eprintln!("gemm {n}x{n}x{n} t={t}: {:.3} ms", ns / 1e6);
        }
    }
    for &n in gemv_sizes {
        let a = det_mat(n, n, 3);
        let x = det_vec(n, 4);
        let mut y = vec![0.0; n];
        for &t in THREADS {
            dp_pool::set_threads(t);
            let (ns, k) = measure(samples, || a.matvec_into(&x, &mut y));
            rep.push("gemv", &[n, n], t, ns, k);
            eprintln!("gemv {n}x{n} t={t}: {:.3} ms", ns / 1e6);
        }
    }

    // Per-backend side-by-side sweep at t = 1: every backend this CPU
    // supports over the same operands, so one committed file carries the
    // scalar-vs-SIMD ratio (the plain "gemm"/"gemv" records above cover
    // the thread sweep under the active backend).
    let cmp_gemm: &[usize] = if opts.smoke { &[128] } else { &[128, 512] };
    let cmp_gemv: &[usize] = if opts.smoke { &[1024] } else { &[1024, 4096] };
    dp_pool::set_threads(1);
    for kind in dp_tensor::backend::available() {
        for &n in cmp_gemm {
            let a = det_mat(n, n, 1);
            let b = det_mat(n, n, 2);
            let mut c = Mat::zeros(n, n);
            let (ns, k) = dp_tensor::backend::with_backend(kind, || {
                measure(samples, || a.matmul_into(&b, &mut c, 0.0))
            })
            .expect("backend came from available()");
            rep.push(&format!("gemm/{}", kind.name()), &[n, n, n], 1, ns, k);
            eprintln!("gemm/{} {n}x{n}x{n} t=1: {:.3} ms", kind.name(), ns / 1e6);
        }
        for &n in cmp_gemv {
            let a = det_mat(n, n, 3);
            let x = det_vec(n, 4);
            let mut y = vec![0.0; n];
            let (ns, k) = dp_tensor::backend::with_backend(kind, || {
                measure(samples, || a.matvec_into(&x, &mut y))
            })
            .expect("backend came from available()");
            rep.push(&format!("gemv/{}", kind.name()), &[n, n], 1, ns, k);
            eprintln!("gemv/{} {n}x{n} t=1: {:.3} ms", kind.name(), ns / 1e6);
        }
    }
    rep
}

fn bench_p_update(opts: &Opts) -> BenchReport {
    let mut rep = BenchReport::new("p_update");
    let mut sizes: Vec<usize> = if opts.smoke { vec![512] } else { vec![512, 2048, 4096] };
    if opts.paper {
        sizes.push(10240);
    }
    let samples = if opts.smoke { 3 } else { 7 };
    for &n in &sizes {
        let layout = BlockLayout::from_layer_sizes(&[n], n);
        let g = det_vec(n, 5);
        let mut q = vec![0.0; n];
        for &t in THREADS {
            dp_pool::set_threads(t);
            let p = BlockP::identity(&layout);
            let (ns, k) = measure(samples, || p.matvec_into(0, &g, &mut q));
            rep.push("p_matvec", &[n], t, ns, k);
            eprintln!("p_matvec n={n} t={t}: {:.3} ms", ns / 1e6);
            let mut p = BlockP::identity(&layout);
            p.matvec_into(0, &g, &mut q);
            let s = if n >= 10240 { 3 } else { samples };
            // a, λ chosen so repeated updates stay numerically tame.
            let (ns, k) = measure(s, || p.update_fused(0, &q, 1e-6, 0.9999));
            rep.push("p_update_fused", &[n], t, ns, k);
            eprintln!("p_update_fused n={n} t={t}: {:.3} ms", ns / 1e6);
        }
    }
    rep
}

fn main() {
    let opts = parse_opts();
    // Fail loudly before measuring anything: a bench run under a
    // misspelled or unsupported DP_BACKEND must not produce a file.
    let backend = match dp_tensor::backend::try_global_kind() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "bench_kernels: backend {backend} (available: {:?})",
        dp_tensor::backend::available()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
    );
    let reports = [
        ("BENCH_gemm.json", bench_gemm(&opts)),
        ("BENCH_p_update.json", bench_p_update(&opts)),
    ];
    dp_pool::set_threads(1);
    for (file, rep) in &reports {
        let path = opts.out.join(file);
        rep.write(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {} ({} records)", path.display(), rep.records.len());
    }
}
