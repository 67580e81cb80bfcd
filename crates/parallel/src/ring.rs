//! Chunked ring-allreduce over bounded `std::sync::mpsc` channels, with a
//! fault-tolerant link protocol.
//!
//! The classic two-phase algorithm Horovod uses: with `r` ranks the
//! vector is cut into `r` chunks; in `r − 1` *scatter-reduce* steps
//! each rank sends one chunk to its successor and accumulates the
//! chunk it receives, after which every rank owns one fully-reduced
//! chunk; `r − 1` *allgather* steps then circulate the reduced chunks.
//! Every rank sends `2·(r−1)·(N/r)` elements — the bandwidth-optimal
//! volume the paper's §3.3 analysis builds on.
//!
//! # Fault model
//!
//! Each directed link carries checksummed messages and a reverse
//! acknowledgement channel. A sender retransmits on a NACK (checksum
//! mismatch at the receiver) or an acknowledgement timeout (message
//! dropped), up to [`FaultPlan::max_retries`] times; retransmitted
//! payloads are bitwise identical, so a collective that survives
//! drops, corruption, and stragglers produces *bitwise* the same
//! result as a fault-free one. A rank that dies mid-collective
//! surfaces as [`CommError::DeadRank`]; [`resilient_allreduce`]
//! degrades gracefully by re-forming the ring over the survivors and
//! renormalizing the sum.

use crate::comm_model::CommStats;
use crate::error::CommError;
use crate::fault::FaultPlan;
use dp_tensor::wire::crc32;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

/// One checksummed chunk in flight on a link.
struct Msg {
    step: usize,
    payload: Vec<f64>,
    crc: u32,
}

/// Receiver's verdict on one message.
struct Ack {
    step: usize,
    ok: bool,
}

/// A rank's four channel endpoints: data to its successor, data from
/// its predecessor, and the matching reverse acknowledgement lanes.
struct Link {
    tx: SyncSender<Msg>,
    ack_rx: Receiver<Ack>,
    rx: Receiver<Msg>,
    ack_tx: SyncSender<Ack>,
}

#[derive(Default)]
struct WorkerStats {
    bytes_sent: usize,
    retries: u64,
    faults_detected: u64,
}

/// How long a receiver poll blocks before giving the ack lane a turn.
const POLL: Duration = Duration::from_micros(500);

fn payload_crc(p: &[f64]) -> u32 {
    let mut bytes = Vec::with_capacity(p.len() * 8);
    for &x in p {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    crc32(&bytes)
}

/// Full-duplex exchange for one ring step: send `payload` forward
/// (with retransmission until acknowledged) while receiving and
/// acknowledging the predecessor's chunk.
fn exchange(
    rank: usize,
    step: usize,
    payload: &[f64],
    link: &Link,
    plan: &FaultPlan,
    ws: &mut WorkerStats,
) -> Result<Vec<f64>, CommError> {
    let crc = payload_crc(payload);
    let send_attempt = |attempt: u32, ws: &mut WorkerStats| {
        if let Some(d) = plan.straggle_delay(rank) {
            thread::sleep(d);
        }
        if plan.drops(rank, step, attempt) {
            return; // injected loss: the ack timeout will catch it
        }
        let mut p = payload.to_vec();
        if plan.corrupts(rank, step, attempt) && !p.is_empty() {
            let i = step % p.len();
            p[i] = f64::from_bits(p[i].to_bits() ^ 1);
        }
        ws.bytes_sent += p.len() * std::mem::size_of::<f64>();
        // A send to a closed channel is not an error by itself: the
        // peer may have acknowledged an earlier copy and completed the
        // collective (its ack is still buffered on the reverse lane).
        // A genuinely dead peer surfaces when the ack lane drains dry
        // and disconnects.
        let _ = link.tx.send(Msg { step, payload: p, crc });
    };

    let mut attempt = 0u32;
    send_attempt(attempt, ws);
    let mut last_send = Instant::now();
    let started = Instant::now();
    // A peer may straggle and burn its whole retry budget before its
    // chunk arrives; be several times more patient than that.
    let straggle = plan.straggler.map(|s| s.delay).unwrap_or(Duration::ZERO);
    let budget = (plan.ack_timeout + straggle) * (plan.max_retries + 2) * 4;

    let mut incoming: Option<Vec<f64>> = None;
    let mut acked = false;
    while !(acked && incoming.is_some()) {
        if started.elapsed() > budget {
            return Err(CommError::Timeout { rank, step });
        }
        if incoming.is_none() {
            match link.rx.recv_timeout(POLL) {
                Ok(msg) => {
                    if msg.step >= step {
                        let ok = payload_crc(&msg.payload) == msg.crc;
                        if !ok {
                            ws.faults_detected += 1;
                        }
                        // A completed-and-exited sender no longer
                        // listens for acks; that is not a failure.
                        let _ = link.ack_tx.send(Ack { step: msg.step, ok });
                        if ok {
                            incoming = Some(msg.payload);
                        }
                    }
                    // msg.step < step: stale duplicate of an already
                    // acknowledged chunk — drain silently.
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { rank, step })
                }
            }
        }
        if !acked {
            // Poll when the data lane still needs turns; block briefly
            // once only the ack is outstanding.
            let outcome = if incoming.is_some() {
                link.ack_rx.recv_timeout(POLL)
            } else {
                link.ack_rx.try_recv().map_err(|e| match e {
                    TryRecvError::Empty => RecvTimeoutError::Timeout,
                    TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
                })
            };
            let mut resend = false;
            match outcome {
                Ok(ack) if ack.step == step => {
                    if ack.ok {
                        acked = true;
                    } else {
                        resend = true; // NACK: corruption detected downstream
                    }
                }
                Ok(_) => {} // stale ack from an earlier step
                Err(RecvTimeoutError::Timeout) => {
                    resend = last_send.elapsed() > plan.ack_timeout;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { rank, step })
                }
            }
            if resend {
                attempt += 1;
                ws.retries += 1;
                if attempt > plan.max_retries {
                    // `attempt` sends were made: the initial one plus
                    // `max_retries` retransmissions.
                    return Err(CommError::RetriesExhausted { rank, step, attempts: attempt });
                }
                send_attempt(attempt, ws);
                last_send = Instant::now();
            }
        }
    }
    Ok(incoming.expect("loop exits only with a payload"))
}

/// In-place allreduce (sum) across `buffers`, one buffer per rank, each
/// rank running on its own OS thread connected to its neighbours by
/// channels. Returns per-rank communication statistics.
pub fn ring_allreduce(buffers: &mut [Vec<f64>]) -> Result<CommStats, CommError> {
    ring_allreduce_faulty(buffers, &FaultPlan::none())
}

/// [`ring_allreduce`] with fault injection. On `Err` the buffer
/// contents are unspecified (a collective may have partially
/// completed); callers that need rollback semantics should use
/// [`resilient_allreduce`], which restores inputs on failure.
pub fn ring_allreduce_faulty(
    buffers: &mut [Vec<f64>],
    plan: &FaultPlan,
) -> Result<CommStats, CommError> {
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
        return Ok(CommStats {
            ranks: r,
            bytes_sent_per_rank: 0,
            steps: 0,
            retries: 0,
            faults_detected: 0,
            dead_ranks: 0,
        });
    }

    // Chunk boundaries (ceil split keeps every index covered).
    let chunk = n.div_ceil(r);
    let bounds: Vec<(usize, usize)> = (0..r)
        .map(|c| ((c * chunk).min(n), ((c + 1) * chunk).min(n)))
        .collect();

    // Channels: data rank i → (i + 1) % r, acks flow back. Capacity
    // covers a full retry burst so sends never block (a blocking send
    // in a cycle of links is a deadlock).
    let cap = 2 * (plan.max_retries as usize + 2);
    let mut links: Vec<Option<Link>> = (0..r).map(|_| None).collect();
    {
        let mut data_tx: Vec<Option<SyncSender<Msg>>> = (0..r).map(|_| None).collect();
        let mut data_rx: Vec<Option<Receiver<Msg>>> = (0..r).map(|_| None).collect();
        let mut ack_tx: Vec<Option<SyncSender<Ack>>> = (0..r).map(|_| None).collect();
        let mut ack_rx: Vec<Option<Receiver<Ack>>> = (0..r).map(|_| None).collect();
        for i in 0..r {
            let next = (i + 1) % r;
            let (tx, rx) = sync_channel::<Msg>(cap);
            data_tx[i] = Some(tx);
            data_rx[next] = Some(rx);
            let (atx, arx) = sync_channel::<Ack>(cap);
            ack_tx[next] = Some(atx);
            ack_rx[i] = Some(arx);
        }
        for i in 0..r {
            links[i] = Some(Link {
                tx: data_tx[i].take().unwrap(),
                ack_rx: ack_rx[i].take().unwrap(),
                rx: data_rx[i].take().unwrap(),
                ack_tx: ack_tx[i].take().unwrap(),
            });
        }
    }

    let total_steps = 2 * (r - 1);
    let mut results: Vec<Result<WorkerStats, CommError>> = Vec::with_capacity(r);
    thread::scope(|scope| {
        let handles: Vec<_> = buffers
            .iter_mut()
            .enumerate()
            .map(|(rank, buf)| {
                let link = links[rank].take().unwrap();
                let bounds = bounds.clone();
                scope.spawn(move || -> Result<WorkerStats, CommError> {
                    let mut ws = WorkerStats::default();
                    let death = plan.death_step(rank);
                    for s in 0..total_steps {
                        if death == Some(s) {
                            return Err(CommError::DeadRank { rank });
                        }
                        // Scatter-reduce in the first r−1 steps, then
                        // allgather; both phases circulate one chunk
                        // per step.
                        let (send_c, recv_c, reduce) = if s < r - 1 {
                            ((rank + r - s) % r, (rank + r - s - 1) % r, true)
                        } else {
                            let t = s - (r - 1);
                            ((rank + 1 + r - t) % r, (rank + r - t) % r, false)
                        };
                        let (a, b) = bounds[send_c];
                        let payload = buf[a..b].to_vec();
                        let incoming = exchange(rank, s, &payload, &link, plan, &mut ws)?;
                        let (a, b) = bounds[recv_c];
                        if reduce {
                            for (dst, src) in buf[a..b].iter_mut().zip(&incoming) {
                                *dst += src;
                            }
                        } else {
                            buf[a..b].copy_from_slice(&incoming);
                        }
                    }
                    Ok(ws)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            results.push(h.join().unwrap_or(Err(CommError::WorkerPanic { rank })));
        }
    });

    let mut stats = CommStats {
        ranks: r,
        bytes_sent_per_rank: 0,
        steps: total_steps,
        retries: 0,
        faults_detected: 0,
        dead_ranks: 0,
    };
    let mut first_err: Option<CommError> = None;
    for res in results {
        match res {
            Ok(ws) => {
                stats.bytes_sent_per_rank = stats.bytes_sent_per_rank.max(ws.bytes_sent);
                stats.retries += ws.retries;
                stats.faults_detected += ws.faults_detected;
            }
            Err(e @ CommError::DeadRank { .. }) => {
                // A death is the root cause; neighbours' disconnects
                // and timeouts are its echoes.
                first_err = Some(e);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Fault-tolerant allreduce with graceful degradation: on a dead rank
/// the inputs are restored, the ring is re-formed over the survivors,
/// and the surviving sum is renormalized by `r_total / r_alive` so it
/// stays an unbiased estimate of the full-group sum. Dead ranks keep
/// their input buffers untouched. On any error the inputs are
/// restored before returning.
pub fn resilient_allreduce(
    buffers: &mut [Vec<f64>],
    plan: &FaultPlan,
) -> Result<CommStats, CommError> {
    let r = buffers.len();
    let backup: Vec<Vec<f64>> = buffers.to_vec();
    let restore = |buffers: &mut [Vec<f64>]| {
        for (b, orig) in buffers.iter_mut().zip(&backup) {
            b.copy_from_slice(orig);
        }
    };
    match ring_allreduce_faulty(buffers, plan) {
        Ok(stats) => Ok(stats),
        Err(CommError::DeadRank { .. }) | Err(CommError::Disconnected { .. }) => {
            restore(buffers);
            let total_steps = 2 * r.saturating_sub(1);
            let dead: Vec<usize> = plan
                .dead_ranks()
                .into_iter()
                .filter(|&d| d < r && plan.death_step(d).is_some_and(|s| s < total_steps))
                .collect();
            let alive: Vec<usize> = (0..r).filter(|i| !dead.contains(i)).collect();
            if alive.is_empty() {
                return Err(CommError::AllRanksDead);
            }
            let mut sub: Vec<Vec<f64>> = alive.iter().map(|&i| backup[i].clone()).collect();
            let survivors_plan = plan.without_dead();
            let mut stats = match ring_allreduce_faulty(&mut sub, &survivors_plan) {
                Ok(s) => s,
                Err(e) => {
                    restore(buffers);
                    return Err(e);
                }
            };
            let scale = r as f64 / alive.len() as f64;
            for b in &mut sub {
                for v in b.iter_mut() {
                    *v *= scale;
                }
            }
            for (&i, b) in alive.iter().zip(sub) {
                buffers[i] = b;
            }
            stats.dead_ranks = dead.len();
            Ok(stats)
        }
        Err(e) => {
            restore(buffers);
            Err(e)
        }
    }
}

/// Reference implementation: serial sum + broadcast (for testing and
/// as the "naive" comparison in the allreduce benches).
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
        retries: 0,
        faults_detected: 0,
        dead_ranks: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DeadRank, Straggler};
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

    #[test]
    fn dropped_messages_are_retransmitted_bitwise_identically() {
        let mut total_retries = 0;
        for &r in &[2usize, 4, 8] {
            let mut clean = make_buffers(r, 40);
            ring_allreduce(&mut clean).unwrap();
            let plan = FaultPlan { seed: 11, drop_prob: 0.15, ..FaultPlan::none() };
            let mut faulty = make_buffers(r, 40);
            let stats = ring_allreduce_faulty(&mut faulty, &plan).unwrap();
            assert_eq!(clean, faulty, "r={r}: drops changed the result");
            total_retries += stats.retries;
        }
        assert!(total_retries > 0, "a 15% drop rate must force retransmissions");
    }

    #[test]
    fn corrupted_chunks_are_detected_and_retransmitted() {
        let mut total_detected = 0;
        for &r in &[2usize, 4, 8] {
            let mut clean = make_buffers(r, 40);
            ring_allreduce(&mut clean).unwrap();
            let plan = FaultPlan { seed: 5, corrupt_prob: 0.15, ..FaultPlan::none() };
            let mut faulty = make_buffers(r, 40);
            let stats = ring_allreduce_faulty(&mut faulty, &plan).unwrap();
            assert_eq!(clean, faulty, "r={r}: corruption leaked into the result");
            total_detected += stats.faults_detected;
        }
        assert!(total_detected > 0, "checksums must catch injected bit flips");
    }

    #[test]
    fn straggler_delays_do_not_change_the_result() {
        for &r in &[2usize, 4, 8] {
            let mut clean = make_buffers(r, 24);
            ring_allreduce(&mut clean).unwrap();
            let plan = FaultPlan {
                straggler: Some(Straggler { rank: r - 1, delay: Duration::from_millis(2) }),
                ..FaultPlan::none()
            };
            let mut faulty = make_buffers(r, 24);
            ring_allreduce_faulty(&mut faulty, &plan).unwrap();
            assert_eq!(clean, faulty, "r={r}: straggler changed the result");
        }
    }

    #[test]
    fn combined_drop_corrupt_straggler_matrix() {
        for &r in &[2usize, 4, 8] {
            let plan = FaultPlan {
                seed: 99,
                drop_prob: 0.05,
                corrupt_prob: 0.05,
                straggler: Some(Straggler { rank: 0, delay: Duration::from_millis(1) }),
                ..FaultPlan::none()
            };
            let mut clean = make_buffers(r, 31);
            ring_allreduce(&mut clean).unwrap();
            let mut faulty = make_buffers(r, 31);
            ring_allreduce_faulty(&mut faulty, &plan).unwrap();
            assert_eq!(clean, faulty, "r={r}: combined faults changed the result");
        }
    }

    #[test]
    fn dead_rank_surfaces_as_typed_error() {
        let plan = FaultPlan {
            dead: vec![DeadRank { rank: 1, step: 1 }],
            ..FaultPlan::none()
        };
        let mut bufs = make_buffers(3, 12);
        assert_eq!(
            ring_allreduce_faulty(&mut bufs, &plan),
            Err(CommError::DeadRank { rank: 1 })
        );
    }

    #[test]
    fn resilient_allreduce_reforms_ring_without_dead_rank() {
        let r = 4;
        let n = 20;
        let plan = FaultPlan {
            dead: vec![DeadRank { rank: 2, step: 0 }],
            ..FaultPlan::none()
        };
        let orig = make_buffers(r, n);
        let mut bufs = orig.clone();
        let stats = resilient_allreduce(&mut bufs, &plan).unwrap();
        assert_eq!(stats.dead_ranks, 1);

        // Survivors hold the survivor-sum scaled by r / r_alive.
        let mut expect = vec![0.0; n];
        for (rank, b) in orig.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            for (e, v) in expect.iter_mut().zip(b) {
                *e += v;
            }
        }
        let scale = r as f64 / (r - 1) as f64;
        for e in expect.iter_mut() {
            *e *= scale;
        }
        for (rank, b) in bufs.iter().enumerate() {
            if rank == 2 {
                assert_eq!(b, &orig[2], "dead rank's buffer must be untouched");
            } else {
                for (u, v) in b.iter().zip(&expect) {
                    assert!((u - v).abs() < 1e-9, "rank {rank}: {u} vs {v}");
                }
            }
        }
    }

    #[test]
    fn resilient_allreduce_restores_inputs_when_unrecoverable() {
        // Every attempt dropped: retries exhaust, inputs must come back.
        let plan = FaultPlan { seed: 3, drop_prob: 1.0, max_retries: 1, ..FaultPlan::none() };
        let orig = make_buffers(2, 10);
        let mut bufs = orig.clone();
        let err = resilient_allreduce(&mut bufs, &plan).unwrap_err();
        // Which variant surfaces depends on scheduling: the rank that
        // exhausts its budget first exits and drops its channels, so a
        // lagging peer may observe Disconnected instead of reaching its
        // own RetriesExhausted. All three restore the inputs.
        assert!(
            matches!(
                err,
                CommError::RetriesExhausted { .. }
                    | CommError::Timeout { .. }
                    | CommError::Disconnected { .. }
            ),
            "unexpected error: {err}"
        );
        assert_eq!(bufs, orig, "inputs must be restored on failure");
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

        #[test]
        fn faulty_ring_is_bitwise_equal_to_clean_ring(
            r in 2usize..5,
            n in 1usize..40,
            seed in 0u64..500,
        ) {
            let bufs: Vec<Vec<f64>> = (0..r)
                .map(|rank| (0..n).map(|i| ((rank * 31 + i * 7 + seed as usize) % 97) as f64 - 48.0).collect())
                .collect();
            let mut clean = bufs.clone();
            ring_allreduce(&mut clean).unwrap();
            let plan = FaultPlan { seed, drop_prob: 0.05, corrupt_prob: 0.05, ..FaultPlan::none() };
            let mut faulty = bufs.clone();
            ring_allreduce_faulty(&mut faulty, &plan).unwrap();
            prop_assert_eq!(&clean, &faulty);
        }
    }
}
