//! Logical "devices": the shards of a minibatch, computed in turn on
//! the calling thread and reduced with the ring allreduce — the
//! in-process stand-in for the paper's multi-GPU data parallelism
//! (Figure 5: samples split into chunks, each chunk computed on one
//! device, then reduced). A device is a shard, not a thread: each
//! shard's work fans out over `dp-pool` itself.

use crate::comm_model::CommStats;
use crate::error::CommError;
use crate::ring::ring_allreduce;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A fixed-size group of logical devices.
#[derive(Clone, Copy, Debug)]
pub struct DeviceGroup {
    n_devices: usize,
}

/// Result of a sharded map-reduce: the summed scalar and the
/// communication statistics of the vector allreduce. The reduced
/// vector is in every rank's buffer; read it from the first.
#[derive(Clone, Copy, Debug)]
pub struct ShardedReduce {
    /// Sum of per-device scalars, in rank order.
    pub scalar: f64,
    /// Ring-allreduce accounting for the vector exchange.
    pub comm: CommStats,
}

impl DeviceGroup {
    /// Create a group of `n_devices` logical devices.
    ///
    /// # Panics
    /// Panics if `n_devices == 0` (a construction-time configuration
    /// error, not a runtime fault).
    pub fn new(n_devices: usize) -> Self {
        assert!(n_devices > 0, "need at least one device");
        DeviceGroup { n_devices }
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Device `d`'s contiguous shard of `items` (the Figure 5
    /// chunking). Devices past the item count get empty shards.
    pub fn shard<'a, T>(&self, items: &'a [T], d: usize) -> &'a [T] {
        let per = items.len().div_ceil(self.n_devices);
        &items[(d * per).min(items.len())..((d + 1) * per).min(items.len())]
    }

    /// Run `work` once per device on its shard of `items`, in rank
    /// order; each device writes its vector into its (cleared) buffer
    /// of `bufs` and returns a scalar. The vectors are combined in
    /// place with the ring allreduce and the scalars summed (the ABE
    /// reduction).
    ///
    /// `work` receives `(device index, shard, buffer)`. `bufs` is
    /// resized to one buffer per device and keeps its capacity, so a
    /// steady-state call allocates nothing. A device whose `work`
    /// panics is [`CommError::WorkerPanic`], one whose vector is not
    /// `vec_len` long [`CommError::MismatchedLengths`].
    pub fn map_reduce<T>(
        &self,
        items: &[T],
        vec_len: usize,
        bufs: &mut Vec<Vec<f64>>,
        mut work: impl FnMut(usize, &[T], &mut Vec<f64>) -> f64,
    ) -> Result<ShardedReduce, CommError> {
        bufs.resize_with(self.n_devices, Vec::new);
        let mut scalar = 0.0;
        for (rank, buf) in bufs.iter_mut().enumerate() {
            buf.clear();
            let shard = self.shard(items, rank);
            scalar += catch_unwind(AssertUnwindSafe(|| work(rank, shard, buf)))
                .map_err(|_| CommError::WorkerPanic { rank })?;
            if buf.len() != vec_len {
                return Err(CommError::MismatchedLengths { rank, expect: vec_len, got: buf.len() });
            }
        }
        let comm = ring_allreduce(bufs)?;
        Ok(ShardedReduce { scalar, comm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn shards_cover_all_items_in_order() {
        let g = DeviceGroup::new(3);
        let items: Vec<usize> = (0..10).collect();
        let flat: Vec<usize> = (0..3).flat_map(|d| g.shard(&items, d).iter().copied()).collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn more_devices_than_items_yields_empty_shards() {
        let g = DeviceGroup::new(8);
        let items = [1, 2, 3];
        let nonempty = (0..8).filter(|&d| !g.shard(&items, d).is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!((0..8).map(|d| g.shard(&items, d).len()).sum::<usize>(), 3);
    }

    #[test]
    fn map_reduce_sums_vectors_and_scalars() {
        let g = DeviceGroup::new(4);
        let items: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut bufs = Vec::new();
        let out = g
            .map_reduce(&items, 2, &mut bufs, |_, shard, v| {
                let s: f64 = shard.iter().sum();
                v.extend([s, shard.len() as f64]);
                s
            })
            .unwrap();
        let total: f64 = items.iter().sum();
        assert!((bufs[0][0] - total).abs() < 1e-12);
        assert!((bufs[0][1] - 20.0).abs() < 1e-12);
        assert!((out.scalar - total).abs() < 1e-12);
        assert_eq!(out.comm.ranks, 4);
    }

    #[test]
    fn single_device_has_zero_comm() {
        let g = DeviceGroup::new(1);
        let mut bufs = Vec::new();
        let out = g
            .map_reduce(&[1, 2, 3], 1, &mut bufs, |_, shard, v| {
                v.push(shard.len() as f64);
                0.0
            })
            .unwrap();
        assert_eq!(out.comm.bytes_sent_per_rank, 0);
        assert_eq!(bufs[0], vec![3.0]);
    }

    #[test]
    fn work_receives_correct_device_indices() {
        let g = DeviceGroup::new(3);
        let items: Vec<usize> = (0..9).collect();
        let mut bufs = Vec::new();
        g.map_reduce(&items, 3, &mut bufs, |d, _, v| {
            v.resize(3, 0.0);
            v[d] = 1.0;
            0.0
        })
        .unwrap();
        assert_eq!(bufs[0], vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn wrong_size_vector_is_an_error_not_a_panic() {
        let g = DeviceGroup::new(2);
        let err = g
            .map_reduce(&[1, 2], 3, &mut Vec::new(), |d, _, v| {
                v.resize(if d == 1 { 2 } else { 3 }, 0.0);
                0.0
            })
            .unwrap_err();
        assert_eq!(err, CommError::MismatchedLengths { rank: 1, expect: 3, got: 2 });
    }

    #[test]
    fn panicking_worker_is_an_error_not_a_crash() {
        // Every rank of every group size in turn; each row runs on its
        // own thread under a watchdog, so a hang fails instead of stalling.
        for r in [2usize, 4, 8] {
            for dead in 0..r {
                let (tx, rx) = mpsc::channel();
                let row = thread::spawn(move || {
                    let items: Vec<usize> = (0..2 * r).collect();
                    let mut bufs = Vec::new();
                    let out = DeviceGroup::new(r).map_reduce(&items, 3, &mut bufs, |d, shard, v| {
                        if d == dead {
                            panic!("injected worker bug on rank {d}");
                        }
                        v.resize(3, shard.len() as f64);
                        1.0
                    });
                    let _ = tx.send(out.map(|_| bufs.swap_remove(0)));
                });
                let res = rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("r={r}, rank {dead} panicking: no result in 10 s"));
                assert_eq!(res, Err(CommError::WorkerPanic { rank: dead }), "r={r}");
                row.join().expect("the row's thread returned its result");
            }
        }
    }
}
