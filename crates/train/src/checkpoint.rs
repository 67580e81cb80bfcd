//! Training checkpoints: crash-safe snapshots of everything a run
//! needs to resume **bit-for-bit** — model weights, the full optimizer
//! state (Adam moments or the EKF `P` blocks and λ), and the sampler
//! cursor (epoch, batches consumed, RNG stream position at the start
//! of the epoch).
//!
//! A checkpoint is a DPCK v1 record of `dp_tensor::wire` (header, CRC
//! trailer, end check and atomic, durable save live there). Body
//! (little-endian):
//!
//! ```text
//! epoch u64 | batches_done u64 | iterations u64 | rng word_pos 2×u64 |
//! rollbacks u32 | params f64 vec | opt tag u8 | opt blob bytes |
//! best flag u8 [ best_eval f64 | best_params f64 vec ]
//! ```
//!
//! Loads validate dimensions against the live run, so a torn or
//! mismatched file is a typed error — never a poisoned resume.
//!
//! The epoch loop's rollback target is a [`Snapshot`]: the same state,
//! typed and in memory, refreshed in place. A DPCK record is built from
//! it only when the run has a checkpoint directory.

use deepmd_core::model::DeepPotModel;
pub use dp_optim::OptKind;
use dp_optim::OptimizerState;
use dp_tensor::wire::{Reader, Record, WireError};
use std::io;
use std::path::{Path, PathBuf};

const CHECKPOINT: Record = Record::new(*b"DPCK", 1, 1);

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

/// Where a run stands: everything a [`Snapshot`] or [`Checkpoint`]
/// records besides the weights and the optimizer.
#[derive(Clone, Copy, Debug)]
pub struct Cursor {
    /// Epoch in progress (1-based).
    pub epoch: usize,
    /// Batches already consumed within that epoch.
    pub batches_done: usize,
    /// Weight-update iterations completed.
    pub iterations: u64,
    /// RNG stream position at the start of `epoch`.
    pub word_pos: u128,
    /// Divergence rollbacks consumed so far.
    pub rollbacks: u32,
}

/// The last known-healthy state of the epoch loop, in memory: a
/// [`Cursor`], the weights and a whole optimizer. [`Snapshot::take`]
/// allocates its copies once; [`Snapshot::refresh`] and
/// [`Snapshot::restore`] copy into buffers that already exist, so
/// neither serialises `P` (or Adam's moments) nor allocates.
#[derive(Debug)]
pub struct Snapshot<O> {
    /// Where the run stood.
    pub cursor: Cursor,
    params: Vec<f64>,
    opt: O,
}

impl<O: OptimizerState> Snapshot<O> {
    /// A first snapshot of `model` and `opt`.
    pub fn take(cursor: Cursor, model: &DeepPotModel, opt: &O) -> Self {
        Snapshot { cursor, params: model.get_params(), opt: opt.clone() }
    }

    /// Overwrite the snapshot with the current state, in place.
    pub fn refresh(&mut self, cursor: Cursor, model: &DeepPotModel, opt: &O) {
        self.cursor = cursor;
        model.params_into(&mut self.params);
        self.opt.copy_state_from(opt);
    }

    /// Put the snapshot's weights and optimizer state back.
    pub fn restore(&self, model: &mut DeepPotModel, opt: &mut O) {
        model.set_params(&self.params);
        opt.copy_state_from(&self.opt);
    }

    /// The DPCK checkpoint of this snapshot, with the run's best state.
    pub fn to_checkpoint(&self, best: &Option<(f64, Vec<f64>)>) -> Checkpoint {
        let c = self.cursor;
        Checkpoint {
            epoch: c.epoch,
            batches_done: c.batches_done,
            iterations: c.iterations,
            word_pos: c.word_pos,
            rollbacks: c.rollbacks,
            params: self.params.clone(),
            opt_kind: O::KIND,
            opt_bytes: self.opt.state_to_bytes(),
            best: best.clone(),
        }
    }
}

fn non_finite(what: &str) -> WireError {
    WireError::Invalid(format!("non-finite {what} in checkpoint"))
}

fn read_checkpoint(r: &mut Reader) -> Result<Checkpoint, WireError> {
    let epoch = r.u64()? as usize;
    let batches_done = r.u64()? as usize;
    let iterations = r.u64()?;
    let lo = r.u64()? as u128;
    let hi = r.u64()? as u128;
    let rollbacks = r.u32()?;
    let params = r.f64_vec()?;
    if params.iter().any(|v| !v.is_finite()) {
        return Err(non_finite("parameter"));
    }
    let opt_kind = OptKind::from_tag(r.u8()?)?;
    let opt_bytes = r.bytes()?.to_vec();
    let best = match r.u8()? {
        0 => None,
        1 => {
            let eval = r.f64()?;
            let bp = r.f64_vec()?;
            if !eval.is_finite() || bp.iter().any(|v| !v.is_finite()) {
                return Err(non_finite("best state"));
            }
            Some((eval, bp))
        }
        t => return Err(WireError::Invalid(format!("bad best-state flag {t}"))),
    };
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
}

impl Checkpoint {
    /// Serialize to a DPCK record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = CHECKPOINT.writer();
        // Room for the optimizer blob and both parameter vectors, plus
        // the few dozen bytes of fixed fields, header and CRC.
        let best_len = self.best.as_ref().map_or(0, |(_, p)| p.len());
        w.reserve(self.opt_bytes.len() + 8 * (self.params.len() + best_len) + 128);
        w.u64(self.epoch as u64);
        w.u64(self.batches_done as u64);
        w.u64(self.iterations);
        w.u64(self.word_pos as u64);
        w.u64((self.word_pos >> 64) as u64);
        w.u32(self.rollbacks);
        w.f64_vec(&self.params);
        w.u8(self.opt_kind as u8);
        w.bytes(&self.opt_bytes);
        match &self.best {
            None => w.u8(0),
            Some((eval, params)) => {
                w.u8(1);
                w.f64(*eval);
                w.f64_vec(params);
            }
        }
        CHECKPOINT.seal(w)
    }

    /// Decode a DPCK record.
    pub fn from_bytes(buf: &[u8]) -> io::Result<Checkpoint> {
        Ok(CHECKPOINT.decode(buf, read_checkpoint)?)
    }

    /// Write atomically and durably ([`Record::save`]): readers see
    /// either the previous checkpoint or this one, never a torn file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        CHECKPOINT.save(path, &self.to_bytes())
    }

    /// Read and verify a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        CHECKPOINT.load(path, read_checkpoint)
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
    match Checkpoint::load(checkpoint_path(dir)) {
        Ok(ck) => Ok(Some(ck)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
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
    fn non_finite_params_are_rejected() {
        let mut c = sample();
        c.params[1] = f64::NAN;
        let e = Checkpoint::from_bytes(&c.to_bytes()).unwrap_err();
        assert!(e.to_string().contains("non-finite"), "got: {e}");
    }

    #[test]
    fn load_latest_reads_the_saved_checkpoint() {
        let dir = std::env::temp_dir().join(format!("dpck_test_dir_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        assert!(load_latest(&dir).unwrap().is_none());
        let c = sample();
        c.save(checkpoint_path(&dir)).unwrap();
        let back = load_latest(&dir).unwrap().unwrap();
        assert_eq!(back.params, c.params);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
