//! Oracle family 4 — golden end-to-end regression fingerprints.
//!
//! The first three families prove local properties; this one pins the
//! *whole* training loop. Each optimizer (Adam, RLEKF, FEKF,
//! Naive-EKF) trains a small fixed model on a fixed generated NaCl
//! dataset for a fixed number of epochs, and the result is reduced to
//! a fingerprint (RLEKF is FEKF at batch size 1, through the same loop
//! with every guard off):
//!
//! * a CRC-32 over the final parameter vector's little-endian bytes
//!   (any single-ULP weight change flips it), and
//! * the per-epoch energy/force RMSE trace stored as **exact f64 bit
//!   patterns** (hex), so the comparison is bit-for-bit rather than
//!   decimal-rounded.
//!
//! Fingerprints are committed under `results/golden/golden_<opt>.json`
//! and regenerated with `verify --bless` after an *intentional*
//! numeric change. They are a function of a fixed internal seed — not
//! the CLI `--seed` — and of a pinned scale ([`Profile::golden_scale`]
//! is profile-independent), so every machine and thread count produces
//! the same trajectory (the PR-2 deterministic pool and PR-3
//! bitwise-neutral env cache are what make this a usable oracle rather
//! than a flaky one).
//!
//! Since the backend split (DESIGN §13) the fingerprints are explicitly
//! a *scalar-backend* artifact: [`fingerprint`] pins its training run to
//! `BackendKind::Scalar` whatever `DP_BACKEND` says, so the committed
//! bytes stay valid under any global backend. SIMD backends re-associate
//! reductions and cannot be bitwise against these files — they are held
//! to the scalar oracle by the tolerance-banded `backend` family
//! instead.

use crate::gen;
use crate::{Check, Profile, VerifyCheck};
use dp_data::dataset::Dataset;
use dp_mdsim::systems::PaperSystem;
use dp_optim::adam::{Adam, AdamConfig};
use dp_optim::fekf::{Fekf, FekfConfig};
use dp_optim::naive_ekf::NaiveEkf;
use dp_tensor::wire::crc32;
use dp_train::trainer::{RobustConfig, TrainConfig, TrainOutcome, Trainer};
use std::path::{Path, PathBuf};

/// The golden runs always use this seed, never the CLI `--seed`: the
/// committed fingerprints must match regardless of how the harness is
/// invoked.
const GOLDEN_SEED: u64 = 0x5EED_601D;

/// Batch size of the batched optimizers (RLEKF is inherently 1).
const GOLDEN_BS: usize = 4;

/// The four pinned optimizers.
pub const OPTIMIZERS: [&str; 4] = ["adam", "rlekf", "fekf", "naive_ekf"];

/// A run reduced to its committed form.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Optimizer name.
    pub optimizer: String,
    /// CRC-32 of the final flat parameter vector (LE bytes).
    pub params_crc32: u32,
    /// Parameter count (a cheap shape guard).
    pub n_params: usize,
    /// Per-epoch `[energy_rmse, force_rmse]` as f64 bit patterns.
    pub loss_trace: Vec<u64>,
}

impl Fingerprint {
    /// Serialize to the committed JSON form (hand-rolled, like every
    /// other emitter in this workspace — no JSON dependency).
    pub fn to_json(&self) -> String {
        let trace: Vec<String> = self.loss_trace.iter().map(|b| format!("\"{b:016x}\"")).collect();
        format!(
            "{{\n  \"optimizer\": \"{}\",\n  \"params_crc32\": {},\n  \"n_params\": {},\n  \"loss_trace\": [{}]\n}}\n",
            self.optimizer,
            self.params_crc32,
            self.n_params,
            trace.join(", ")
        )
    }

    /// Parse the committed form. Tolerant of whitespace, nothing else.
    pub fn from_json(s: &str) -> Option<Fingerprint> {
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\":");
            let at = s.find(&pat)? + pat.len();
            Some(s[at..].trim_start())
        };
        let optimizer = {
            let rest = field("optimizer")?.strip_prefix('"')?;
            rest[..rest.find('"')?].to_string()
        };
        let num = |key: &str| -> Option<u64> {
            let rest = field(key)?;
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let params_crc32 = num("params_crc32")? as u32;
        let n_params = num("n_params")? as usize;
        let rest = field("loss_trace")?;
        let body = &rest[rest.find('[')? + 1..];
        let body = &body[..body.find(']')?];
        let mut loss_trace = Vec::new();
        for tok in body.split(',') {
            let tok = tok.trim().trim_matches('"');
            if tok.is_empty() {
                continue;
            }
            loss_trace.push(u64::from_str_radix(tok, 16).ok()?);
        }
        Some(Fingerprint { optimizer, params_crc32, n_params, loss_trace })
    }
}

/// The fixed golden dataset: jittered, classically labelled NaCl
/// frames from the paper-system generator.
fn golden_dataset(n_frames: usize) -> Dataset {
    let frames: Vec<_> = (0..n_frames)
        .map(|i| gen::system_frame(PaperSystem::NaCl, GOLDEN_SEED.wrapping_add(i as u64), 0.08))
        .collect();
    let mut ds = Dataset::new("golden-nacl", frames[0].type_names.clone());
    for f in frames {
        ds.push(f);
    }
    ds
}

/// Train one pinned run and reduce it to its fingerprint. The run is
/// forced onto the scalar backend (see the module docs): bitwise
/// fingerprints and SIMD re-association don't mix.
pub fn fingerprint(optimizer: &str, profile: Profile) -> Fingerprint {
    dp_tensor::backend::with_backend(dp_tensor::backend::BackendKind::Scalar, || {
        fingerprint_scalar(optimizer, profile)
    })
    .expect("the scalar backend is always available")
}

fn fingerprint_scalar(optimizer: &str, profile: Profile) -> Fingerprint {
    let (n_frames, epochs) = profile.golden_scale();
    let ds = golden_dataset(n_frames);
    let (model, _) = gen::system_model(PaperSystem::NaCl, GOLDEN_SEED, 2);
    let mut model = model;
    let cfg = TrainConfig {
        batch_size: if optimizer == "rlekf" { 1 } else { GOLDEN_BS },
        max_epochs: epochs,
        target: None,
        eval_frames: n_frames,
        force_updates: 2,
        seed: GOLDEN_SEED,
        ..TrainConfig::default()
    };
    let trainer = Trainer::new(cfg);
    let layers = model.layer_sizes();
    let outcome: TrainOutcome = match optimizer {
        "adam" => {
            let mut opt = Adam::new(model.n_params(), AdamConfig::default());
            trainer
                .train_adam(&mut model, &mut opt, &ds, None, &RobustConfig::off())
                .expect("a run with every guard off cannot fail")
        }
        "rlekf" | "fekf" => {
            let mut opt = Fekf::new(&layers, trainer.cfg.batch_size, FekfConfig::default());
            trainer
                .train_fekf_robust(&mut model, &mut opt, &ds, None, &RobustConfig::off())
                .expect("a run with every guard off cannot fail")
        }
        "naive_ekf" => {
            let mut opt = NaiveEkf::new(&layers, 10240, GOLDEN_BS, None, true);
            trainer
                .train_naive_ekf(&mut model, &mut opt, &ds, None, &RobustConfig::off())
                .expect("a run with every guard off cannot fail")
        }
        other => panic!("unknown golden optimizer {other:?}"),
    };
    let params = model.get_params();
    let bytes: Vec<u8> = params.iter().flat_map(|p| p.to_le_bytes()).collect();
    let mut loss_trace = Vec::new();
    for rec in &outcome.history.epochs {
        loss_trace.push(rec.train.energy_rmse.to_bits());
        loss_trace.push(rec.train.force_rmse.to_bits());
    }
    Fingerprint {
        optimizer: optimizer.to_string(),
        params_crc32: crc32(&bytes),
        n_params: params.len(),
        loss_trace,
    }
}

/// Path of one committed fingerprint under `golden_dir`.
pub fn golden_path(golden_dir: &Path, optimizer: &str) -> PathBuf {
    golden_dir.join(format!("golden_{optimizer}.json"))
}

/// Compare (or, with `bless`, regenerate) all four fingerprints.
pub fn run(golden_dir: &Path, profile: Profile, bless: bool) -> Vec<VerifyCheck> {
    let mut out = Vec::new();
    for opt in OPTIMIZERS {
        let mut check = Check::new(
            "golden",
            format!("golden/{opt}"),
            &["dp-train", "dp-optim", "deepmd-core", "dp-tensor", "dp-data"],
            0.0,
        );
        let fresh = fingerprint(opt, profile);
        let path = golden_path(golden_dir, opt);
        if bless {
            std::fs::create_dir_all(golden_dir).expect("create golden dir");
            std::fs::write(&path, fresh.to_json()).expect("write golden file");
            check.exact(true, || unreachable!());
            out.push(check.finish());
            continue;
        }
        let committed = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| Fingerprint::from_json(&s));
        match committed {
            None => check.exact(false, || {
                format!(
                    "missing or unparseable {}: run `verify --bless` and commit the result",
                    path.display()
                )
            }),
            Some(c) => {
                check.exact(c.n_params == fresh.n_params, || {
                    format!("{opt}: n_params {} vs committed {}", fresh.n_params, c.n_params)
                });
                check.exact(c.params_crc32 == fresh.params_crc32, || {
                    format!(
                        "{opt}: weights CRC {:#010x} vs committed {:#010x} — the trained \
                         trajectory changed; if intentional, re-bless",
                        fresh.params_crc32, c.params_crc32
                    )
                });
                check.exact(c.loss_trace == fresh.loss_trace, || {
                    let fresh_h: Vec<String> =
                        fresh.loss_trace.iter().map(|b| format!("{b:016x}")).collect();
                    let comm_h: Vec<String> =
                        c.loss_trace.iter().map(|b| format!("{b:016x}")).collect();
                    format!("{opt}: loss trace {fresh_h:?} vs committed {comm_h:?}")
                });
            }
        }
        out.push(check.finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_json_roundtrips() {
        let f = Fingerprint {
            optimizer: "fekf".into(),
            params_crc32: 0xDEAD_BEEF,
            n_params: 1234,
            loss_trace: vec![0x3FE5_5555_0000_0001, 0x4001_0000_0000_0000],
        };
        let back = Fingerprint::from_json(&f.to_json()).expect("parse");
        assert_eq!(back, f);
    }

    #[test]
    fn fingerprints_are_reproducible_and_optimizer_sensitive() {
        // Two fresh runs of the same optimizer agree bit-for-bit (the
        // determinism the golden oracle rests on), while different
        // optimizers diverge.
        let a = fingerprint("fekf", Profile::Quick);
        let b = fingerprint("fekf", Profile::Quick);
        assert_eq!(a, b, "the pinned FEKF run must be deterministic");
        let c = fingerprint("rlekf", Profile::Quick);
        assert_ne!(
            a.params_crc32, c.params_crc32,
            "different optimizers should land on different weights"
        );
    }

    #[test]
    fn bless_then_check_passes_and_tamper_fails() {
        let dir = std::env::temp_dir().join(format!("dp-verify-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Bless one optimizer's fingerprint by hand (run() does all
        // four; this test keeps it cheap).
        let fresh = fingerprint("adam", Profile::Quick);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(golden_path(&dir, "adam"), fresh.to_json()).unwrap();
        let committed =
            Fingerprint::from_json(&std::fs::read_to_string(golden_path(&dir, "adam")).unwrap())
                .unwrap();
        assert_eq!(committed, fresh);

        // Tamper: flip one bit of the committed CRC.
        let mut bad = committed.clone();
        bad.params_crc32 ^= 1;
        assert_ne!(bad, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
