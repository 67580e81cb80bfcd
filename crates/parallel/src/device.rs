//! Logical "devices": a group of worker threads that process minibatch
//! shards in parallel and reduce flat vectors — the thread-level
//! stand-in for the paper's multi-GPU data parallelism (Figure 5:
//! samples split into chunks, each chunk computed on one device, then
//! reduced).

use crate::comm_model::CommStats;
use crate::error::CommError;
use crate::ring::ring_allreduce;
use std::thread;

/// A fixed-size group of logical devices.
#[derive(Clone, Copy, Debug)]
pub struct DeviceGroup {
    n_devices: usize,
}

/// Result of a sharded map-reduce: the reduced vector and scalar, plus
/// the communication statistics of the gradient allreduce.
#[derive(Clone, Debug)]
pub struct ShardedReduce {
    /// Element-wise sum of per-device vectors.
    pub vector: Vec<f64>,
    /// Sum of per-device scalars.
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

    /// Split `items` into `n_devices` contiguous shards (the Figure 5
    /// chunking). Devices past the item count get empty shards.
    pub fn shards<'a, T>(&self, items: &'a [T]) -> Vec<&'a [T]> {
        let per = items.len().div_ceil(self.n_devices);
        (0..self.n_devices)
            .map(|d| {
                let a = (d * per).min(items.len());
                let b = ((d + 1) * per).min(items.len());
                &items[a..b]
            })
            .collect()
    }

    /// Run `work` once per device on its shard of `items`, in parallel
    /// on real threads; each device returns `(vector, scalar)`; the
    /// vectors are combined with a genuine ring allreduce and the
    /// scalars summed (the ABE reduction).
    ///
    /// `work` receives `(device index, shard)`.
    pub fn map_reduce<T: Sync>(
        &self,
        items: &[T],
        vec_len: usize,
        work: impl Fn(usize, &[T]) -> (Vec<f64>, f64) + Sync,
    ) -> Result<ShardedReduce, CommError> {
        let shards = self.shards(items);
        let mut buffers: Vec<Vec<f64>> = Vec::with_capacity(self.n_devices);
        let mut scalars = vec![0.0; self.n_devices];
        let mut worker_err: Option<CommError> = None;
        thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(d, shard)| {
                    let work = &work;
                    scope.spawn(move || work(d, shard))
                })
                .collect();
            for (d, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((v, s)) => {
                        if v.len() != vec_len && worker_err.is_none() {
                            worker_err = Some(CommError::MismatchedLengths {
                                rank: d,
                                expect: vec_len,
                                got: v.len(),
                            });
                        }
                        buffers.push(v);
                        scalars[d] = s;
                    }
                    Err(_) => {
                        if worker_err.is_none() {
                            worker_err = Some(CommError::WorkerPanic { rank: d });
                        }
                        buffers.push(vec![0.0; vec_len]);
                    }
                }
            }
        });
        if let Some(e) = worker_err {
            return Err(e);
        }
        let comm = ring_allreduce(&mut buffers)?;
        Ok(ShardedReduce {
            vector: buffers.swap_remove(0),
            scalar: scalars.iter().sum(),
            comm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn shards_cover_all_items_in_order() {
        let g = DeviceGroup::new(3);
        let items: Vec<usize> = (0..10).collect();
        let shards = g.shards(&items);
        assert_eq!(shards.len(), 3);
        let flat: Vec<usize> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn more_devices_than_items_yields_empty_shards() {
        let g = DeviceGroup::new(8);
        let items = [1, 2, 3];
        let shards = g.shards(&items);
        let nonempty = shards.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), 3);
    }

    #[test]
    fn map_reduce_sums_vectors_and_scalars() {
        let g = DeviceGroup::new(4);
        let items: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let out = g
            .map_reduce(&items, 2, |_, shard| {
                let s: f64 = shard.iter().sum();
                (vec![s, shard.len() as f64], s)
            })
            .unwrap();
        let total: f64 = items.iter().sum();
        assert!((out.vector[0] - total).abs() < 1e-12);
        assert!((out.vector[1] - 20.0).abs() < 1e-12);
        assert!((out.scalar - total).abs() < 1e-12);
        assert_eq!(out.comm.ranks, 4);
    }

    #[test]
    fn single_device_has_zero_comm() {
        let g = DeviceGroup::new(1);
        let out = g
            .map_reduce(&[1, 2, 3], 1, |_, shard| (vec![shard.len() as f64], 0.0))
            .unwrap();
        assert_eq!(out.comm.bytes_sent_per_rank, 0);
        assert_eq!(out.vector, vec![3.0]);
    }

    #[test]
    fn work_receives_correct_device_indices() {
        let g = DeviceGroup::new(3);
        let items: Vec<usize> = (0..9).collect();
        let out = g
            .map_reduce(&items, 3, |d, _| {
                let mut v = vec![0.0; 3];
                v[d] = 1.0;
                (v, 0.0)
            })
            .unwrap();
        assert_eq!(out.vector, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn wrong_size_vector_is_an_error_not_a_panic() {
        let g = DeviceGroup::new(2);
        let err = g
            .map_reduce(&[1, 2], 3, |d, _| (vec![0.0; if d == 1 { 2 } else { 3 }], 0.0))
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
                    let out = DeviceGroup::new(r).map_reduce(&items, 3, |d, shard| {
                        if d == dead {
                            panic!("injected worker bug on rank {d}");
                        }
                        (vec![shard.len() as f64; 3], 1.0)
                    });
                    let _ = tx.send(out.map(|o| o.vector));
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
