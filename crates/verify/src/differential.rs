//! Oracle family 3 — differential equivalences between fast paths and
//! their slow references.
//!
//! Every perf PR in this repo replaced a transparent implementation
//! with an optimized one: tiled GEMM kernels (PR 2), the fused `P`
//! update (Opt3), the persistent env cache (PR 3), the batched serving
//! engine (PR 4), and the funnel-dataflow FEKF that collapses to
//! RLEKF/Naive-EKF at batch size 1 (paper §3.1). Each fast path claims
//! a precise relationship to its reference; this module re-derives the
//! reference inline (naive triple loops, uncached forwards, sequential
//! `predict`) and holds the fast path to the claim:
//!
//! * **bitwise** (`tol = 0`) where the fast path documents identical
//!   accumulation order: `matmul`/`t_matmul` vs a k-ascending naive
//!   loop, cached vs uncached forwards, batched vs sequential serving,
//!   degraded (energy-only) vs full serving under the SLO layer,
//!   FEKF vs Naive-EKF/RLEKF at `bs = 1` with a shared memory factor;
//! * **tight-ULP** where only the combine order differs: the
//!   4-accumulator `rowdot` behind `matmul_t`/`matvec` (`1e-13`), the
//!   fused vs unfused `P` update (`1e-12`);
//! * **FD-free analytic** `1e-9` for the handwritten backward on the
//!   frame-batched core vs the tape autograd baseline — two different
//!   graphs over the same arithmetic — including frames whose layout
//!   has empty (centre type, neighbour type) blocks;
//! * **bitwise** for the multi-tangent force-gradient sweep vs one
//!   single-tangent sweep per tangent.

use crate::gen::{self, XorShift64};
use crate::{rel_err, Check, Profile, VerifyCheck};
use deepmd_core::env_cache::EnvCache;
use deepmd_core::tape_path;
use dp_optim::ekf::KfCore;
use dp_optim::fekf::{Fekf, FekfConfig, QuasiLr};
use dp_optim::lambda::MemoryFactor;
use dp_optim::naive_ekf::NaiveEkf;
use dp_serve::batch::BatchPolicy;
use dp_serve::engine::Engine;
use dp_serve::registry::ModelRegistry;
use dp_tensor::Mat;
use std::sync::Arc;

/// Combine-order tolerance for the 4-accumulator `rowdot` paths.
const TOL_ROWDOT: f64 = 1e-13;
/// Fused-vs-unfused `P` update tolerance (matches the in-crate test).
const TOL_FUSED: f64 = 1e-12;
/// Handwritten backward vs tape autograd (different graphs, same math).
const TOL_TAPE: f64 = 1e-9;

/// Naive `C = A·B`, `k` ascending into a single accumulator — the
/// reference the tiled kernel documents bitwise equality with.
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    Mat::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(k, j);
        }
        acc
    })
}

/// Naive `C = Aᵀ·B`, `k` (= rows of `A`) ascending.
fn naive_t_matmul(a: &Mat, b: &Mat) -> Mat {
    Mat::from_fn(a.cols(), b.cols(), |i, j| {
        let mut acc = 0.0;
        for k in 0..a.rows() {
            acc += a.get(k, i) * b.get(k, j);
        }
        acc
    })
}

/// Naive `C = A·Bᵀ`, `k` ascending.
fn naive_matmul_t(a: &Mat, b: &Mat) -> Mat {
    Mat::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(j, k);
        }
        acc
    })
}

/// Random shapes for the GEMM checks: `count` small shapes plus one
/// large enough to cross `PAR_FLOPS_THRESHOLD` and engage the thread
/// pool (the tiling claims bitwise thread-count independence — this is
/// where that claim gets teeth).
fn gemm_shapes(rng: &mut XorShift64, count: usize) -> Vec<(usize, usize, usize)> {
    let mut shapes: Vec<(usize, usize, usize)> = (0..count)
        .map(|_| (1 + rng.index(33), 1 + rng.index(33), 1 + rng.index(33)))
        .collect();
    shapes.push((64, 64, 64)); // 64³ = 262144 flops ≥ 2¹⁷ threshold
    shapes
}

/// Tiled vs naive GEMM family, pinned to the scalar backend: the
/// bitwise claim is "tiling does not change the arithmetic", and the
/// naive references here are plain scalar Rust — under a SIMD backend
/// the comparison would be measuring FMA, not tiling. SIMD backends are
/// held to the scalar kernels by the `backend` family's tolerance bands.
pub fn gemm(seed: u64, profile: Profile) -> Vec<VerifyCheck> {
    dp_tensor::backend::with_backend(dp_tensor::backend::BackendKind::Scalar, || {
        gemm_scalar(seed, profile)
    })
    .expect("the scalar backend is always available")
}

fn gemm_scalar(seed: u64, profile: Profile) -> Vec<VerifyCheck> {
    let mut rng = XorShift64::new(seed ^ 0x6E55_13FA_2B80_C4D7);
    let shapes = gemm_shapes(&mut rng, profile.gemm_shapes());

    let mut mm = Check::new("differential", "gemm/matmul_vs_naive", &["dp-tensor", "dp-pool"], 0.0);
    let mut tn = Check::new("differential", "gemm/t_matmul_vs_naive", &["dp-tensor", "dp-pool"], 0.0);
    let mut nt = Check::new(
        "differential",
        "gemm/matmul_t_vs_naive",
        &["dp-tensor", "dp-pool"],
        TOL_ROWDOT,
    );
    let mut mv = Check::new("differential", "gemm/matvec_vs_naive", &["dp-tensor", "dp-pool"], TOL_ROWDOT);

    for &(m, k, n) in &shapes {
        let a = gen::random_mat(&mut rng, m, k);
        let b = gen::random_mat(&mut rng, k, n);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        for (idx, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
            mm.exact(x.to_bits() == y.to_bits(), || {
                format!("matmul {m}x{k}x{n} elem {idx}: tiled {x:.17e} vs naive {y:.17e}")
            });
        }

        let at = gen::random_mat(&mut rng, k, m); // Aᵀ·B: k×m ᵀ · k×n
        let fast = at.t_matmul(&b);
        let slow = naive_t_matmul(&at, &b);
        for (idx, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
            tn.exact(x.to_bits() == y.to_bits(), || {
                format!("t_matmul {k}x{m}x{n} elem {idx}: tiled {x:.17e} vs naive {y:.17e}")
            });
        }

        let bt = gen::random_mat(&mut rng, n, k); // A·Bᵀ: m×k · (n×k)ᵀ
        let fast = a.matmul_t(&bt);
        let slow = naive_matmul_t(&a, &bt);
        for (idx, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
            nt.case(rel_err(*x, *y), || {
                format!("matmul_t {m}x{k}x{n} elem {idx}: rowdot {x:.17e} vs naive {y:.17e}")
            });
        }

        let x = gen::random_vec(&mut rng, k);
        let fast = a.matvec(&x);
        for (i, &yi) in fast.iter().enumerate() {
            let mut acc = 0.0;
            for (kk, xv) in x.iter().enumerate() {
                acc += a.get(i, kk) * xv;
            }
            mv.case(rel_err(yi, acc), || {
                format!("matvec {m}x{k} row {i}: rowdot {yi:.17e} vs naive {acc:.17e}")
            });
        }
    }
    vec![mm.finish(), tn.finish(), nt.finish(), mv.finish()]
}

/// Fused vs unfused `P` update: identical gradient/error streams into
/// two `KfCore`s that differ only in the Opt3 kernel.
pub fn kf_fused_vs_unfused(seed: u64, profile: Profile) -> VerifyCheck {
    let (streams, steps) = profile.kf_cases();
    let mut check = Check::new("differential", "kf/fused_vs_unfused", &["dp-optim"], TOL_FUSED);
    let layers = [18usize, 30, 12];
    for s in 0..streams {
        let mut rng = XorShift64::new(seed ^ 0x9D02_44E7_AB16_5C30 ^ (s as u64) << 17);
        let mem = MemoryFactor::paper_default();
        let mut fused = KfCore::new(&layers, 16, mem, true);
        let mut unfused = KfCore::new(&layers, 16, mem, false);
        let n: usize = layers.iter().sum();
        for t in 0..steps {
            let g = gen::random_vec(&mut rng, n);
            let abe = rng.range(0.0, 2.0);
            let df = fused.update(&g, abe, 1.0);
            let du = unfused.update(&g, abe, 1.0);
            for (i, (x, y)) in df.iter().zip(&du).enumerate() {
                check.case(rel_err(*x, *y), || {
                    format!("stream {s} step {t} param {i}: fused {x:.17e} vs unfused {y:.17e}")
                });
            }
        }
    }
    check.finish()
}

/// Cached vs uncached forward: energies and forces bitwise equal, on
/// both the cold (build) and hot (hit) pass.
pub fn env_cache_bitwise(seed: u64, _profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "differential",
        "env_cache/cached_vs_uncached",
        &["deepmd-core"],
        0.0,
    );
    let model = gen::toy_model(seed.wrapping_add(7));
    let frames: Vec<_> = (0..4).map(|i| gen::toy_frame(seed.wrapping_add(70 + i))).collect();
    let cache = EnvCache::new(frames.len());
    for round in 0..2 {
        for (idx, frame) in frames.iter().enumerate() {
            let plain = model.forward(frame);
            let cached = model.forward_with_cache(&cache, idx, frame);
            check.exact(plain.energy.to_bits() == cached.energy.to_bits(), || {
                format!(
                    "round {round} frame {idx} energy: plain {:.17e} vs cached {:.17e}",
                    plain.energy, cached.energy
                )
            });
            let fp = model.forces(&plain);
            let fc = model.forces(&cached);
            let all_eq = fp
                .iter()
                .zip(&fc)
                .all(|(a, b)| (0..3).all(|c| a.0[c].to_bits() == b.0[c].to_bits()));
            check.exact(all_eq, || {
                format!("round {round} frame {idx}: cached forces differ bitwise")
            });
        }
    }
    let stats = cache.stats();
    check.exact(stats.hits > 0, || {
        format!("cache never hit across two passes: {stats:?}")
    });
    check.finish()
}

/// Hold the batched core's energy, forces, `∇θE` and `∇θ(cᵀF)` on
/// `frame` to the tape-autograd baseline.
fn compare_with_tape(
    check: &mut Check,
    model: &deepmd_core::model::DeepPotModel,
    frame: &dp_data::dataset::Snapshot,
    label: &str,
    seed: u64,
) {
    let pass = model.forward(frame);

    let e_tape = tape_path::energy_tape(model, frame);
    check.case(rel_err(pass.energy, e_tape), || {
        format!("{label} energy: manual {:.15e} vs tape {e_tape:.15e}", pass.energy)
    });

    let fm = model.forces(&pass);
    let ft = tape_path::forces_tape(model, frame);
    for i in 0..fm.len() {
        for a in 0..3 {
            check.case(rel_err(fm[i].0[a], ft[i].0[a]), || {
                format!(
                    "{label} force atom {i} comp {a}: manual {:+.12e} vs tape {:+.12e}",
                    fm[i].0[a], ft[i].0[a]
                )
            });
        }
    }

    let gm = model.grad_energy_params(&pass);
    let gt = tape_path::grad_energy_params_tape(model, frame);
    for (i, (x, y)) in gm.iter().zip(&gt).enumerate() {
        check.case(rel_err(*x, *y), || {
            format!("{label} dE/dθ[{i}]: manual {x:+.12e} vs tape {y:+.12e}")
        });
    }

    let mut rng = XorShift64::new(seed ^ 0xBEE5_0A7C);
    let coeffs = gen::random_vec(&mut rng, 3 * frame.types.len());
    let gm = model.grad_force_sum_params(&pass, &coeffs);
    let gt = tape_path::grad_force_sum_params_tape(model, frame, &coeffs);
    for (i, (x, y)) in gm.iter().zip(&gt).enumerate() {
        check.case(rel_err(*x, *y), || {
            format!("{label} d(cF)/dθ[{i}]: manual {x:+.12e} vs tape {y:+.12e}")
        });
    }
}

/// Handwritten derivative kernels vs the tape-autograd baseline — the
/// same math through two independent graph constructions.
pub fn manual_vs_tape(seed: u64, _profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "differential",
        "backward/manual_vs_tape",
        &["deepmd-core"],
        TOL_TAPE,
    );
    let model = gen::toy_model(seed.wrapping_add(3));
    for f in 0..2u64 {
        let frame = gen::toy_frame(seed.wrapping_add(30 + f));
        compare_with_tape(&mut check, &model, &frame, &format!("frame {f}"), seed ^ f);
    }
    check.finish()
}

/// The batched core lays a frame out by (centre type, neighbour type)
/// block and runs each network over its block; hold it to the tape on
/// two-species frames where blocks — or a whole type — are empty: the
/// rocksalt toy frame (unlike neighbours only, so the like-pair blocks
/// are empty) and the same geometry with every atom relabelled to type
/// 0 (one populated block; type 1 has neither centres nor neighbours).
pub fn batched_vs_tape_empty_blocks(seed: u64, _profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "differential",
        "backward/batched_vs_tape_empty_blocks",
        &["deepmd-core"],
        TOL_TAPE,
    );
    let model = gen::toy_model(seed.wrapping_add(5));
    let mixed = gen::toy_frame(seed.wrapping_add(40));
    let mut single = mixed.clone();
    single.types.fill(0);
    for (label, frame, want_empty) in [("unlike-only", &mixed, [true, false, false, true]), ("one-type", &single, [false, true, true, true])] {
        // The premise: which (ti, tj) blocks have no rows at all.
        let pass = model.forward(frame);
        let mut empty = [true; 4];
        let envs = &pass.frame_env().envs;
        for (i, &ti) in frame.types.iter().enumerate() {
            for tj in 0..2 {
                empty[ti * 2 + tj] &= envs.of(i, tj).is_empty();
            }
        }
        check.exact(empty == want_empty, || {
            format!("{label}: empty blocks {empty:?}, the check was written for {want_empty:?}")
        });
        compare_with_tape(&mut check, &model, frame, label, seed);
    }
    check.finish()
}

/// The force-gradient sweep takes the trainer's force groups as the
/// tangents of one call and runs the tangent-independent half of the
/// reverse sweep once; each tangent's gradient must be bitwise what a
/// call with that tangent alone gives.
pub fn multi_tangent_vs_single(seed: u64, _profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "differential",
        "backward/multi_tangent_vs_single",
        &["deepmd-core"],
        0.0,
    );
    let model = gen::toy_model(seed.wrapping_add(11));
    for f in 0..2u64 {
        let frame = gen::toy_frame(seed.wrapping_add(60 + f));
        let pass = model.forward(&frame);
        let n = 3 * frame.types.len();
        for n_tangents in [1usize, 2, 4] {
            let mut rng = XorShift64::new(seed ^ 0x7A46_E275 ^ f ^ (n_tangents as u64) << 8);
            let coeffs = gen::random_vec(&mut rng, n_tangents * n);
            let mut stacked: Vec<_> = (0..n_tangents).map(|_| model.zero_grads()).collect();
            model.grad_force_sums_params_into(&pass, &coeffs, &mut stacked);
            for (t, got) in stacked.iter().enumerate() {
                let want = model.grad_force_sum_params(&pass, &coeffs[t * n..(t + 1) * n]);
                let got = model.flatten_grads(got);
                let same = got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                check.exact(same, || {
                    format!("frame {f}, tangent {t} of {n_tangents}: stacked sweep differs bitwise from its single-tangent call")
                });
            }
        }
    }
    check.finish()
}

/// Batched serving vs a direct sequential `predict` on the same model:
/// every response bitwise equal, whatever batch the engine formed.
pub fn serve_batched_vs_sequential(seed: u64, profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "differential",
        "serve/batched_vs_sequential",
        &["dp-serve", "deepmd-core"],
        0.0,
    );
    let model = gen::toy_model(seed.wrapping_add(19));
    let registry = Arc::new(ModelRegistry::new(model.clone()));
    let engine = Engine::start(
        registry,
        BatchPolicy { max_batch: 4, max_wait: std::time::Duration::from_millis(5) },
    );
    let n_req = profile.serve_requests();
    let frames: Vec<_> = (0..n_req)
        .map(|i| gen::toy_frame(seed.wrapping_add(500 + i as u64)))
        .collect();
    // Submit everything up front so the engine actually forms batches,
    // then collect: the claim is bitwise equality *despite* batching.
    let tickets: Vec<_> = frames
        .iter()
        .map(|f| engine.submit(dp_serve::batch::InferRequest::new(f.clone(), true)))
        .collect();
    for (i, (t, frame)) in tickets.into_iter().zip(&frames).enumerate() {
        let resp = match t.and_then(|t| t.wait()) {
            Ok(r) => r,
            Err(e) => {
                check.exact(false, || format!("request {i} failed: {e:?}"));
                continue;
            }
        };
        let direct = model.predict(frame);
        check.exact(resp.energy.to_bits() == direct.energy.to_bits(), || {
            format!(
                "request {i} energy: served {:.17e} vs direct {:.17e}",
                resp.energy, direct.energy
            )
        });
        let served_forces = resp.forces.unwrap_or_default();
        let all_eq = served_forces.len() == direct.forces.len()
            && served_forces
                .iter()
                .zip(&direct.forces)
                .all(|(a, b)| (0..3).all(|c| a.0[c].to_bits() == b.0[c].to_bits()));
        check.exact(all_eq, || format!("request {i}: served forces differ bitwise"));
    }
    engine.shutdown();
    check.finish()
}

/// Degraded (energy-only) serving vs full serving: under overload the
/// engine may drop the force sweep, but the energy it returns must be
/// bitwise the energy half of the full response — degradation changes
/// *what* is served, never the numbers (DESIGN §12).
pub fn serve_degraded_energy(seed: u64, profile: Profile) -> VerifyCheck {
    let mut check = Check::new(
        "differential",
        "serve/degraded_vs_full_energy",
        &["dp-serve", "deepmd-core"],
        0.0,
    );
    let model = gen::toy_model(seed.wrapping_add(23));
    let policy = BatchPolicy { max_batch: 4, max_wait: std::time::Duration::from_millis(5) };
    let full = Engine::start(Arc::new(ModelRegistry::new(model.clone())), policy);
    let degraded = Engine::start_slo(
        Arc::new(ModelRegistry::new(model)),
        dp_serve::SloPolicy::always_degraded(policy),
    );
    for i in 0..profile.serve_requests() as u64 {
        let frame = gen::toy_frame(seed.wrapping_add(900 + i));
        let f = match full.infer(frame.clone(), true) {
            Ok(r) => r,
            Err(e) => {
                check.exact(false, || format!("full request {i} failed: {e}"));
                continue;
            }
        };
        let d = match degraded.infer(frame, true) {
            Ok(r) => r,
            Err(e) => {
                check.exact(false, || format!("degraded request {i} failed: {e}"));
                continue;
            }
        };
        check.exact(d.degraded && d.forces.is_none(), || {
            format!("request {i}: always-degraded engine served a full response")
        });
        check.exact(!f.degraded && f.forces.is_some(), || {
            format!("request {i}: unpressured engine degraded a response")
        });
        check.exact(d.energy.to_bits() == f.energy.to_bits(), || {
            format!(
                "request {i} energy: degraded {:.17e} vs full {:.17e}",
                d.energy, f.energy
            )
        });
    }
    full.shutdown();
    degraded.shutdown();
    check.finish()
}

/// At batch size 1 the funnel dataflow collapses: FEKF (√1 = 1, which
/// is RLEKF) and Naive-EKF (mean over one lane) are the same recursion.
/// With a shared memory factor both must produce identical updates.
pub fn fekf_vs_baselines_bs1(seed: u64, profile: Profile) -> VerifyCheck {
    let (streams, steps) = profile.kf_cases();
    let mut check = Check::new(
        "differential",
        "kf/fekf_vs_baselines_bs1",
        &["dp-optim"],
        0.0,
    );
    let layers = [14usize, 22, 9];
    let n: usize = layers.iter().sum();
    for s in 0..streams {
        let mut rng = XorShift64::new(seed ^ 0x17AC_93B5_60FD_2E48 ^ (s as u64) << 23);
        let mem = MemoryFactor::paper_default();
        let mut fekf = Fekf::new(
            &layers,
            1,
            FekfConfig { blocksize: 16, mem: Some(mem), fused: true, quasi_lr: QuasiLr::SqrtBs },
        );
        let mut naive = NaiveEkf::new(&layers, 16, 1, Some(mem), true);
        for t in 0..steps {
            let g = gen::random_vec(&mut rng, n);
            let abe = rng.range(0.0, 2.0);
            let df = fekf.step(&g, abe);
            let dn = naive.step_batch(std::slice::from_ref(&g), &[abe]);
            for i in 0..n {
                check.exact(df[i].to_bits() == dn[i].to_bits(), || {
                    format!(
                        "stream {s} step {t} param {i}: fekf {:.17e} vs naive {:.17e}",
                        df[i], dn[i]
                    )
                });
            }
        }
    }
    check.finish()
}

/// Run the whole family.
pub fn run(seed: u64, profile: Profile) -> Vec<VerifyCheck> {
    let mut out = gemm(seed, profile);
    out.push(kf_fused_vs_unfused(seed, profile));
    out.push(env_cache_bitwise(seed, profile));
    out.push(manual_vs_tape(seed, profile));
    out.push(batched_vs_tape_empty_blocks(seed, profile));
    out.push(multi_tangent_vs_single(seed, profile));
    out.push(serve_batched_vs_sequential(seed, profile));
    out.push(serve_degraded_energy(seed, profile));
    out.push(fekf_vs_baselines_bs1(seed, profile));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_family_passes() {
        for check in gemm(77, Profile::Quick) {
            assert_eq!(check.failures, 0, "{}: {:?}", check.name, check.details);
        }
    }

    #[test]
    fn a_corrupted_tile_is_caught() {
        // Acceptance criterion in miniature: perturb one element of the
        // tiled product and the bitwise oracle must flag it. Pinned to
        // scalar like the real check — the bitwise claim is scalar-only.
        let mut rng = XorShift64::new(5);
        let a = gen::random_mat(&mut rng, 8, 8);
        let b = gen::random_mat(&mut rng, 8, 8);
        let mut fast = dp_tensor::backend::with_backend(
            dp_tensor::backend::BackendKind::Scalar,
            || a.matmul(&b),
        )
        .unwrap();
        let slow = naive_matmul(&a, &b);
        fast.as_mut_slice()[10] += 1e-13;
        let mut c = Check::new("differential", "t", &[], 0.0);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            c.exact(x.to_bits() == y.to_bits(), || "mismatch".to_string());
        }
        assert_eq!(c.failures(), 1);
    }

    #[test]
    fn kf_equivalences_pass() {
        let c = kf_fused_vs_unfused(99, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
        let c = fekf_vs_baselines_bs1(99, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
    }

    #[test]
    fn serve_families_pass() {
        let c = serve_batched_vs_sequential(21, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
        let c = serve_degraded_energy(21, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
    }

    #[test]
    fn env_cache_and_tape_pass() {
        let c = env_cache_bitwise(13, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
        let c = manual_vs_tape(13, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
        let c = batched_vs_tape_empty_blocks(13, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
        let c = multi_tangent_vs_single(13, Profile::Quick);
        assert_eq!(c.failures, 0, "{:?}", c.details);
    }
}
