//! Chunked ring-allreduce, run as an in-place schedule.
//!
//! The classic two-phase algorithm Horovod uses: with `r` ranks the
//! vector is cut into `r` chunks; in `r − 1` *scatter-reduce* steps
//! each rank sends one chunk to its successor and accumulates the
//! chunk it receives, after which every rank owns one fully-reduced
//! chunk; `r − 1` *allgather* steps then circulate the reduced chunks.
//! Every rank sends `2·(r−1)·(N/r)` elements — the bandwidth-optimal
//! volume the paper's §3.3 analysis builds on.
//!
//! The rank buffers live in one process, so a "send" is the receiver
//! reading its predecessor's chunk: each step runs on the calling thread
//! as `dst += src` (or `dst = src`) from the predecessor's region into
//! the receiver's. Within a step every rank writes one chunk and its
//! successor reads another, so the result is the message-passing ring's
//! bit for bit, and nothing is allocated.

use crate::comm_model::CommStats;
use crate::error::CommError;

/// The chunks `rank` sends and receives at ring step `step` of `r`
/// ranks, and whether the received chunk is added into its own
/// (scatter-reduce) or replaces it (allgather). What a rank receives
/// is what its predecessor sends.
fn schedule(r: usize, rank: usize, step: usize) -> (usize, usize, bool) {
    if step < r - 1 {
        ((rank + r - step) % r, (rank + r - step - 1) % r, true)
    } else {
        let t = step - (r - 1);
        ((rank + 1 + r - t) % r, (rank + r - t) % r, false)
    }
}

/// `rank`'s buffer and its predecessor's around the ring (`r ≥ 2`).
fn with_predecessor(buffers: &mut [Vec<f64>], rank: usize) -> (&mut [f64], &[f64]) {
    let r = buffers.len();
    let (lo, hi) = buffers.split_at_mut(rank.max(1));
    if rank == 0 {
        (&mut lo[0], &hi[r - 2])
    } else {
        (&mut hi[0], &lo[rank - 1])
    }
}

/// In-place allreduce (sum) across `buffers`, one buffer per rank, on
/// the calling thread. Returns the communication statistics of the
/// busiest rank. On `Err` the buffers are untouched.
pub fn ring_allreduce(buffers: &mut [Vec<f64>]) -> Result<CommStats, CommError> {
    let r = buffers.len();
    if r == 0 {
        return Err(CommError::EmptyGroup);
    }
    let n = buffers[0].len();
    for (rank, b) in buffers.iter().enumerate() {
        if b.len() != n {
            return Err(CommError::MismatchedLengths { rank, expect: n, got: b.len() });
        }
    }
    if r == 1 || n == 0 {
        return Ok(CommStats { ranks: r, bytes_sent_per_rank: 0, steps: 0 });
    }

    // Chunk boundaries (ceil split keeps every index covered).
    let chunk = n.div_ceil(r);
    let bounds = |c: usize| (c * chunk).min(n)..((c + 1) * chunk).min(n);
    let total_steps = 2 * (r - 1);
    for step in 0..total_steps {
        for rank in 0..r {
            let (_, recv_c, reduce) = schedule(r, rank, step);
            let (dst, src) = with_predecessor(buffers, rank);
            let (dst, src) = (&mut dst[bounds(recv_c)], &src[bounds(recv_c)]);
            if reduce {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            } else {
                dst.copy_from_slice(src);
            }
        }
    }
    let sent = |rank| (0..total_steps).map(|step| bounds(schedule(r, rank, step).0).len()).sum::<usize>();
    let busiest = (0..r).map(sent).max().unwrap_or(0);
    Ok(CommStats {
        ranks: r,
        bytes_sent_per_rank: busiest * std::mem::size_of::<f64>(),
        steps: total_steps,
    })
}

/// Reference implementation: serial sum + broadcast (the oracle of the
/// ring's tests).
pub fn naive_allreduce(buffers: &mut [Vec<f64>]) -> Result<CommStats, CommError> {
    let r = buffers.len();
    if r == 0 {
        return Err(CommError::EmptyGroup);
    }
    let n = buffers[0].len();
    for (rank, b) in buffers.iter().enumerate() {
        if b.len() != n {
            return Err(CommError::MismatchedLengths { rank, expect: n, got: b.len() });
        }
    }
    let mut total = vec![0.0; n];
    for b in buffers.iter() {
        for (t, v) in total.iter_mut().zip(b) {
            *t += v;
        }
    }
    for b in buffers.iter_mut() {
        b.copy_from_slice(&total);
    }
    Ok(CommStats {
        ranks: r,
        // Gather + broadcast: every non-root rank sends N and receives
        // N; the root sends (r−1)·N.
        bytes_sent_per_rank: (r - 1) * n * std::mem::size_of::<f64>(),
        steps: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn make_buffers(r: usize, n: usize) -> Vec<Vec<f64>> {
        (0..r)
            .map(|rank| (0..n).map(|i| (rank * n + i) as f64 * 0.1 - 3.0).collect())
            .collect()
    }

    #[test]
    fn ring_matches_naive_for_various_shapes() {
        for (r, n) in [(2, 10), (3, 17), (4, 64), (5, 7), (7, 100), (4, 3)] {
            let mut a = make_buffers(r, n);
            let mut b = a.clone();
            ring_allreduce(&mut a).unwrap();
            naive_allreduce(&mut b).unwrap();
            for (x, y) in a.iter().zip(&b) {
                for (u, v) in x.iter().zip(y) {
                    assert!((u - v).abs() < 1e-9, "r={r} n={n}: {u} vs {v}");
                }
            }
        }
    }

    #[test]
    fn all_ranks_agree_after_ring() {
        let mut bufs = make_buffers(4, 33);
        ring_allreduce(&mut bufs).unwrap();
        for rank in 1..4 {
            assert_eq!(bufs[0], bufs[rank], "rank {rank} diverged");
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let mut bufs = make_buffers(1, 20);
        let orig = bufs[0].clone();
        let stats = ring_allreduce(&mut bufs).unwrap();
        assert_eq!(bufs[0], orig);
        assert_eq!(stats.bytes_sent_per_rank, 0);
    }

    #[test]
    fn empty_group_is_an_error_not_a_panic() {
        let mut bufs: Vec<Vec<f64>> = Vec::new();
        assert_eq!(ring_allreduce(&mut bufs), Err(CommError::EmptyGroup));
        assert_eq!(naive_allreduce(&mut bufs), Err(CommError::EmptyGroup));
    }

    #[test]
    fn mismatched_lengths_are_an_error_not_a_panic() {
        let mut bufs = vec![vec![1.0; 8], vec![1.0; 7]];
        assert_eq!(
            ring_allreduce(&mut bufs),
            Err(CommError::MismatchedLengths { rank: 1, expect: 8, got: 7 })
        );
    }

    #[test]
    fn ring_volume_is_bandwidth_optimal() {
        // 2·(r−1)·⌈N/r⌉ elements per rank.
        let r = 4;
        let n = 100;
        let mut bufs = make_buffers(r, n);
        let stats = ring_allreduce(&mut bufs).unwrap();
        let chunk = n.div_ceil(r);
        let expect_max = 2 * (r - 1) * chunk * 8;
        assert!(stats.bytes_sent_per_rank <= expect_max);
        assert!(stats.bytes_sent_per_rank >= 2 * (r - 1) * (n / r) * 8 / 2);
        assert_eq!(stats.steps, 2 * (r - 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn ring_allreduce_property(
            r in 1usize..6,
            n in 0usize..80,
            seed in 0u64..1000,
        ) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 30) as f64) - 4.0
            };
            let bufs: Vec<Vec<f64>> =
                (0..r).map(|_| (0..n).map(|_| next()).collect()).collect();
            let mut ring = bufs.clone();
            let mut naive = bufs.clone();
            ring_allreduce(&mut ring).unwrap();
            naive_allreduce(&mut naive).unwrap();
            for (x, y) in ring.iter().zip(&naive) {
                for (u, v) in x.iter().zip(y) {
                    prop_assert!((u - v).abs() < 1e-8);
                }
            }
        }
    }
}
