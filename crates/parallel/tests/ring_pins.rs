//! Pins `ring_allreduce`'s output bits and byte accounting.
//!
//! Every row is a rank count × vector length with fixed seeded inputs.
//! The ring sums each chunk in its own order, so its result is not the
//! serial sum bit for bit; what it must keep is *its own* bits (a hash
//! over every rank's `to_bits`), the same buffer on every rank, the
//! `bytes_sent_per_rank` / `steps` accounting the `scaling` experiment
//! reads, and closeness to `naive_allreduce`, the reference oracle.
//! A moved hash means the reduction order moved; never re-pin it to
//! make a change pass.

use dp_parallel::ring::{naive_allreduce, ring_allreduce};

/// `(ranks, len, output hash, bytes_sent_per_rank, steps)`.
const PINS: [(usize, usize, u64, usize, usize); 36] = [
    (1, 0, 0xcbf29ce484222325, 0, 0),
    (1, 1, 0xb49ed36c3d71b85b, 0, 0),
    (1, 7, 0xbe8570dd5388a4cd, 0, 0),
    (1, 100, 0x4d40a759d527ce7d, 0, 0),
    (1, 2818, 0x15b8ee90b3dae0ed, 0, 0),
    (1, 11276, 0x56905563ea760055, 0, 0),
    (2, 0, 0xcbf29ce484222325, 0, 0),
    (2, 1, 0x3d926d3db7243a55, 8, 2),
    (2, 7, 0xbaf4da4a27631885, 56, 2),
    (2, 100, 0xcb0bafcfec43b05d, 800, 2),
    (2, 2818, 0xd574a4e5739ab181, 22544, 2),
    (2, 11276, 0x24ba58a6178dbf81, 90208, 2),
    (3, 0, 0xcbf29ce484222325, 0, 0),
    (3, 1, 0x5ec1497e0a5c170b, 16, 4),
    (3, 7, 0x1b53f8880b51773a, 80, 4),
    (3, 100, 0xe127428bc16c5558, 1072, 4),
    (3, 2818, 0xf3d3475fc6fc9575, 30064, 4),
    (3, 11276, 0x0e999488e9cc7b7e, 120280, 4),
    (4, 0, 0xcbf29ce484222325, 0, 0),
    (4, 1, 0x5ac0cd714dc8c425, 16, 6),
    (4, 7, 0xdd91bab9e61d0b39, 88, 6),
    (4, 100, 0x5dfb53f18ea0968d, 1200, 6),
    (4, 2818, 0x1a82191778e9be1d, 33824, 6),
    (4, 11276, 0xb4657631ca2a391d, 135312, 6),
    (5, 0, 0xcbf29ce484222325, 0, 0),
    (5, 1, 0x66417df6920fd6af, 16, 8),
    (5, 7, 0x078d861f4a1a8dcf, 104, 8),
    (5, 100, 0x156664aca75278da, 1280, 8),
    (5, 2818, 0x01419c016c9a78f2, 36080, 8),
    (5, 11276, 0xedcaab40bf7b4351, 144352, 8),
    (8, 0, 0xcbf29ce484222325, 0, 0),
    (8, 1, 0x5d168eb4ed566dcd, 16, 14),
    (8, 7, 0xde0c038e6823182d, 104, 14),
    (8, 100, 0x83d11aab2ecc2495, 1424, 14),
    (8, 2818, 0x39c09e707e189435, 39488, 14),
    (8, 11276, 0x124270e8c19a31a5, 157888, 14),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One buffer of `n` values in [−4, 4) per rank, full 53-bit mantissas,
/// so any change of summation order shows in the low bits.
fn inputs(r: usize, n: usize) -> Vec<Vec<f64>> {
    let mut state = ((r as u64) << 32) | n as u64;
    (0..r)
        .map(|_| {
            (0..n)
                .map(|_| (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0)
                .collect()
        })
        .collect()
}

/// FNV-1a over the bit patterns of every rank's buffer, in rank order.
fn bits_hash(buffers: &[Vec<f64>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in buffers.iter().flatten() {
        h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn ring_allreduce_bits_and_accounting_are_pinned() {
    let mut moved = Vec::new();
    for &(r, n, hash, bytes, steps) in &PINS {
        let mut ring = inputs(r, n);
        let mut naive = ring.clone();
        let stats = ring_allreduce(&mut ring).unwrap();
        naive_allreduce(&mut naive).unwrap();
        assert_eq!(stats.ranks, r);
        for (rank, b) in ring.iter().enumerate() {
            assert_eq!(b, &ring[0], "r={r} n={n}: rank {rank} differs from rank 0");
            for (i, (u, v)) in b.iter().zip(&naive[rank]).enumerate() {
                assert!((u - v).abs() <= 1e-12, "r={r} n={n} [{i}]: ring {u} vs naive {v}");
            }
        }
        let got = (r, n, bits_hash(&ring), stats.bytes_sent_per_rank, stats.steps);
        if got != (r, n, hash, bytes, steps) {
            moved.push(format!("    ({r}, {n}, {:#018x}, {}, {}),", got.2, got.3, got.4));
        }
    }
    assert!(moved.is_empty(), "{} of {} rows moved:\n{}", moved.len(), PINS.len(), moved.join("\n"));
}
