//! Naive-EKF — the fusiform-shaped "computing-then-aggregation"
//! multi-sample EKF of §3.1 (the third row of the paper's Table 2:
//! `E(K·ABE)`).
//!
//! Every sample in the minibatch carries its **own** error covariance
//! matrix and performs its own full Kalman update; the weight
//! increments are then averaged. The per-sample `P` replicas are what
//! make this approach "unbearable when a large batch is adopted"
//! (§3.3): memory scales as `bs × |P|` and distributed training would
//! have to communicate the `P`s. This implementation exists to
//! quantify exactly that, next to FEKF which shares one `P`.

use crate::ekf::KfCore;
use crate::lambda::MemoryFactor;
use crate::{OptKind, OptimizerState};
use dp_tensor::wire::{Reader, WireError, Writer};

/// The Naive-EKF optimizer: one KF lane per batch slot.
#[derive(Clone, Debug)]
pub struct NaiveEkf {
    lanes: Vec<KfCore>,
}

impl NaiveEkf {
    /// Build with `batch_size` independent lanes.
    pub fn new(
        layer_sizes: &[usize],
        blocksize: usize,
        batch_size: usize,
        mem: Option<MemoryFactor>,
        fused: bool,
    ) -> Self {
        assert!(batch_size >= 1, "batch size must be ≥ 1");
        let mem = mem.unwrap_or_else(MemoryFactor::paper_default);
        NaiveEkf {
            lanes: (0..batch_size)
                .map(|_| KfCore::new(layer_sizes, blocksize, mem, fused))
                .collect(),
        }
    }

    /// Batch size (number of lanes).
    pub fn batch_size(&self) -> usize {
        self.lanes.len()
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.lanes[0].n_params()
    }

    /// Total resident bytes of all per-sample `P` replicas — the §3.3
    /// memory argument against the fusiform dataflow.
    pub fn p_memory_bytes(&self) -> usize {
        self.lanes.iter().map(|l| l.p.memory_bytes()).sum()
    }

    /// One batch update: each lane consumes its own sample's signed
    /// gradient (borrowed, e.g. one slot of a wider per-sample buffer)
    /// and absolute error; the mean increment is returned (`E(K·ABE)`).
    ///
    /// # Panics
    /// Panics if the number of samples differs from the lane count.
    pub fn step_batch(&mut self, grads: &[impl AsRef<[f64]>], abes: &[f64]) -> Vec<f64> {
        assert_eq!(grads.len(), self.lanes.len(), "batch size mismatch");
        assert_eq!(abes.len(), self.lanes.len(), "ABE count mismatch");
        let mut mean = vec![0.0; self.n_params()];
        let inv = 1.0 / self.lanes.len() as f64;
        for ((lane, g), &abe) in self.lanes.iter_mut().zip(grads).zip(abes) {
            let delta = lane.update(g.as_ref(), abe, 1.0);
            for (m, d) in mean.iter_mut().zip(&delta) {
                *m += inv * d;
            }
        }
        mean
    }
}

impl OptimizerState for NaiveEkf {
    const KIND: OptKind = OptKind::NaiveEkf;
    const DROP_LAST: bool = true;

    /// The lane count, then each lane's [`KfCore::state_to_bytes`],
    /// length-prefixed.
    fn state_to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.lanes.len() as u64);
        for lane in &self.lanes {
            w.bytes(&lane.state_to_bytes());
        }
        w.into_bytes()
    }

    fn copy_state_from(&mut self, src: &NaiveEkf) {
        assert_eq!(self.lanes.len(), src.lanes.len(), "copy_state_from: lane counts differ");
        for (lane, s) in self.lanes.iter_mut().zip(&src.lanes) {
            lane.copy_state_from(s);
        }
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let (n_lanes, have) = (r.u64()? as usize, self.lanes.len());
        if n_lanes != have {
            return Err(WireError::Invalid(format!("state has {n_lanes} lanes, optimizer has {have}")));
        }
        let mut lanes = self.lanes.clone();
        for lane in &mut lanes {
            lane.restore_state(r.bytes()?)?;
        }
        r.expect_end()?;
        self.lanes = lanes;
        Ok(())
    }

    fn kf_cores(&mut self) -> &mut [KfCore] {
        &mut self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn memory_scales_linearly_with_batch_size() {
        let one = NaiveEkf::new(&[16, 16], 16, 1, None, true);
        let eight = NaiveEkf::new(&[16, 16], 16, 8, None, true);
        assert_eq!(eight.p_memory_bytes(), 8 * one.p_memory_bytes());
    }

    #[test]
    fn batch_of_identical_samples_matches_single_lane() {
        let mut naive = NaiveEkf::new(&[8], 8, 4, None, true);
        let mut single = KfCore::new(&[8], 8, MemoryFactor::paper_default(), true);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..5 {
            let g: Vec<f64> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let abe = rng.gen_range(0.0..0.5);
            let mean = naive.step_batch(&vec![g.clone(); 4], &[abe; 4]);
            let ref_delta = single.update(&g, abe, 1.0);
            for (a, b) in mean.iter().zip(&ref_delta) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn naive_ekf_converges_on_batched_regression() {
        let n = 8;
        let bs = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let w_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut w = vec![0.0; n];
        let mut opt = NaiveEkf::new(&[n], n, bs, None, true);
        for _ in 0..80 {
            let mut grads: Vec<Vec<f64>> = Vec::with_capacity(bs);
            let mut abes = Vec::with_capacity(bs);
            for _ in 0..bs {
                let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y: f64 = w_true.iter().zip(&x).map(|(a, b)| a * b).sum();
                let yhat: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
                let err = y - yhat;
                let sign = if err >= 0.0 { 1.0 } else { -1.0 };
                grads.push(x.iter().map(|v| sign * v).collect());
                abes.push(err.abs());
            }
            let delta = opt.step_batch(&grads, &abes);
            for (wi, d) in w.iter_mut().zip(&delta) {
                *wi += d;
            }
        }
        let dist: f64 = w
            .iter()
            .zip(&w_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 0.2, "Naive-EKF failed to converge: {dist}");
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let grads = |rng: &mut ChaCha8Rng| -> Vec<Vec<f64>> {
            (0..3).map(|_| (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
        };
        let mut opt = NaiveEkf::new(&[6, 4], 8, 3, None, true);
        for _ in 0..5 {
            let _ = opt.step_batch(&grads(&mut rng), &[0.1, 0.2, 0.3]);
        }
        let blob = opt.state_to_bytes();
        let mut fresh = NaiveEkf::new(&[6, 4], 8, 3, None, true);
        fresh.restore_state(&blob).unwrap();
        let mut copy = NaiveEkf::new(&[6, 4], 8, 3, None, true);
        copy.copy_state_from(&opt);
        assert_eq!(fresh.state_to_bytes(), blob);
        assert_eq!(copy.state_to_bytes(), blob);
        let g = grads(&mut rng);
        let d = opt.step_batch(&g, &[0.3, 0.1, 0.2]);
        assert_eq!(fresh.step_batch(&g, &[0.3, 0.1, 0.2]), d);
        // Another lane count is rejected, and a torn blob leaves the
        // lanes as they were.
        assert!(NaiveEkf::new(&[6, 4], 8, 2, None, true).restore_state(&blob).is_err());
        let before = copy.state_to_bytes();
        assert!(copy.restore_state(&blob[..blob.len() - 3]).is_err());
        assert_eq!(copy.state_to_bytes(), before);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn wrong_batch_size_panics() {
        let mut opt = NaiveEkf::new(&[4], 4, 2, None, true);
        let _ = opt.step_batch(&[vec![0.0; 4]], &[0.1]);
    }
}
