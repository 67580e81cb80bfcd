//! Training checkpoints: crash-safe snapshots of everything a run
//! needs to resume **bit-for-bit** — model weights, the full optimizer
//! state (Adam moments or the EKF `P` blocks and λ), and the sampler
//! cursor (epoch, batches consumed, RNG stream position at the start
//! of the epoch).
//!
//! Layout (little-endian, CRC-32 trailer over everything before it):
//!
//! ```text
//! magic "DPCK" | version u32 | epoch u64 | batches_done u64 |
//! iterations u64 | rng word_pos 2×u64 | rollbacks u32 |
//! params f64 vec | opt tag u8 | opt blob bytes |
//! best flag u8 [ best_eval f64 | best_params f64 vec ] | crc32
//! ```
//!
//! Writes are atomic (temporary sibling + rename), so a crash during a
//! checkpoint leaves the previous one intact; loads verify the CRC
//! before decoding and validate dimensions against the live run, so a
//! torn or mismatched file is a typed error — never a poisoned resume.

use dp_tensor::wire::{save_atomic, Reader, Writer};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DPCK";
const VERSION: u32 = 1;

/// Optimizer family stored in a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptKind {
    /// FEKF (KF core + batch envelope).
    Fekf,
    /// Adam (moment vectors + step counter).
    Adam,
}

impl OptKind {
    fn tag(self) -> u8 {
        match self {
            OptKind::Fekf => 0,
            OptKind::Adam => 1,
        }
    }
    fn from_tag(t: u8) -> Result<Self, String> {
        match t {
            0 => Ok(OptKind::Fekf),
            1 => Ok(OptKind::Adam),
            _ => Err(format!("unknown optimizer tag {t}")),
        }
    }
}

/// A resumable training snapshot.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Epoch in progress when the snapshot was taken (1-based).
    pub epoch: usize,
    /// Batches already consumed within that epoch.
    pub batches_done: usize,
    /// Weight-update iterations completed.
    pub iterations: u64,
    /// RNG stream position at the *start* of `epoch` — replaying the
    /// epoch's shuffle from here reproduces the batch order exactly.
    pub word_pos: u128,
    /// Divergence rollbacks consumed so far (the retry budget persists
    /// across resume).
    pub rollbacks: u32,
    /// Flat model parameters.
    pub params: Vec<f64>,
    /// Which optimizer the blob belongs to.
    pub opt_kind: OptKind,
    /// Opaque optimizer state (`state_to_bytes` of the optimizer).
    pub opt_bytes: Vec<u8>,
    /// Best evaluation seen so far and the parameters that achieved it
    /// (for `RobustConfig::restore_best`).
    pub best: Option<(f64, Vec<f64>)>,
}

fn bad(m: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.into())
}

impl Checkpoint {
    /// Serialize with the CRC trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u32(VERSION);
        w.u64(self.epoch as u64);
        w.u64(self.batches_done as u64);
        w.u64(self.iterations);
        w.u64(self.word_pos as u64);
        w.u64((self.word_pos >> 64) as u64);
        w.u32(self.rollbacks);
        w.f64_vec(&self.params);
        w.u8(self.opt_kind.tag());
        w.bytes(&self.opt_bytes);
        match &self.best {
            None => w.u8(0),
            Some((eval, params)) => {
                w.u8(1);
                w.f64(*eval);
                w.f64_vec(params);
            }
        }
        w.into_bytes_with_crc()
    }

    /// Decode, verifying the CRC first.
    pub fn from_bytes(buf: &[u8]) -> io::Result<Checkpoint> {
        let mut r = Reader::new_verifying_crc(buf).map_err(|e| bad(e.to_string()))?;
        let parse = |r: &mut Reader| -> Result<Checkpoint, String> {
            if r.raw(4).map_err(|e| e.to_string())? != MAGIC {
                return Err("bad checkpoint magic".into());
            }
            let version = r.u32().map_err(|e| e.to_string())?;
            if version != VERSION {
                return Err(format!("unsupported checkpoint version {version}"));
            }
            let epoch = r.u64().map_err(|e| e.to_string())? as usize;
            let batches_done = r.u64().map_err(|e| e.to_string())? as usize;
            let iterations = r.u64().map_err(|e| e.to_string())?;
            let lo = r.u64().map_err(|e| e.to_string())? as u128;
            let hi = r.u64().map_err(|e| e.to_string())? as u128;
            let rollbacks = r.u32().map_err(|e| e.to_string())?;
            let params = r.f64_vec().map_err(|e| e.to_string())?;
            if params.iter().any(|v| !v.is_finite()) {
                return Err("non-finite parameter in checkpoint".into());
            }
            let opt_kind = OptKind::from_tag(r.u8().map_err(|e| e.to_string())?)?;
            let opt_bytes = r.bytes().map_err(|e| e.to_string())?.to_vec();
            let best = match r.u8().map_err(|e| e.to_string())? {
                0 => None,
                1 => {
                    let eval = r.f64().map_err(|e| e.to_string())?;
                    let bp = r.f64_vec().map_err(|e| e.to_string())?;
                    if !eval.is_finite() || bp.iter().any(|v| !v.is_finite()) {
                        return Err("non-finite best state in checkpoint".into());
                    }
                    Some((eval, bp))
                }
                t => return Err(format!("bad best-state flag {t}")),
            };
            r.expect_end().map_err(|e| e.to_string())?;
            Ok(Checkpoint {
                epoch,
                batches_done,
                iterations,
                word_pos: lo | (hi << 64),
                rollbacks,
                params,
                opt_kind,
                opt_bytes,
                best,
            })
        };
        parse(&mut r).map_err(bad)
    }

    /// Write crash-safely: temporary sibling + rename, so readers see
    /// either the previous checkpoint or this one, never a torn file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        save_atomic(path, &self.to_bytes())
    }

    /// Read and verify a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        Checkpoint::from_bytes(&fs::read(path)?)
    }
}

/// The canonical checkpoint filename inside a checkpoint directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("train.dpck")
}

/// Load the checkpoint from `dir` if one exists. A missing file is
/// `Ok(None)` (fresh start); an unreadable one is an error — silently
/// restarting from scratch would mask corruption.
pub fn load_latest(dir: &Path) -> io::Result<Option<Checkpoint>> {
    let path = checkpoint_path(dir);
    match fs::read(&path) {
        Ok(buf) => Checkpoint::from_bytes(&buf).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Quick integrity probe used by tests and tooling: does the buffer
/// carry a valid CRC trailer?
pub fn verify_bytes(buf: &[u8]) -> bool {
    Reader::new_verifying_crc(buf).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 3,
            batches_done: 7,
            iterations: 41,
            word_pos: (5u128 << 64) | 123,
            rollbacks: 2,
            params: vec![1.5, -2.25, 0.0625],
            opt_kind: OptKind::Fekf,
            opt_bytes: vec![9, 8, 7, 6],
            best: Some((0.125, vec![1.0, 2.0, 3.0])),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let c = sample();
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.epoch, c.epoch);
        assert_eq!(back.batches_done, c.batches_done);
        assert_eq!(back.iterations, c.iterations);
        assert_eq!(back.word_pos, c.word_pos);
        assert_eq!(back.rollbacks, c.rollbacks);
        assert_eq!(back.params, c.params);
        assert_eq!(back.opt_kind, c.opt_kind);
        assert_eq!(back.opt_bytes, c.opt_bytes);
        assert_eq!(back.best, c.best);
    }

    #[test]
    fn bit_rot_and_truncation_are_rejected() {
        let bytes = sample().to_bytes();
        assert!(verify_bytes(&bytes));
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        assert!(!verify_bytes(&flipped));
        assert!(Checkpoint::from_bytes(&flipped).is_err());
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 9]).is_err());
        assert!(Checkpoint::from_bytes(b"junk").is_err());
    }

    #[test]
    fn non_finite_params_are_rejected() {
        let mut c = sample();
        c.params[1] = f64::NAN;
        let e = Checkpoint::from_bytes(&c.to_bytes()).unwrap_err();
        assert!(e.to_string().contains("non-finite"), "got: {e}");
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("dpck_test_dir");
        let _ = fs::create_dir_all(&dir);
        assert!(load_latest(&dir).unwrap().is_none());
        let c = sample();
        c.save(checkpoint_path(&dir)).unwrap();
        assert!(!dir.join("train.dpck.tmp").exists());
        let back = load_latest(&dir).unwrap().unwrap();
        assert_eq!(back.params, c.params);
        let _ = fs::remove_dir_all(&dir);
    }
}
