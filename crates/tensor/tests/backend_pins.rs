//! Per-backend bit pins: a CRC-32 over the output bits of every SIMD
//! primitive on a fixed deterministic sweep. The goldens pin only the
//! scalar backend and `backend_edge.rs` compares SIMD with a reference
//! to a tolerance, so a kernel edit that moves one rounding — a
//! reordered FMA chain, a different lane tree in `dot`, an FMA slipped
//! into the `P` update — passes everything else and fails here.
//!
//! The literals were captured from the hand-written per-ISA kernels,
//! before `backend.rs` became generic over the lane width.
//!
//! `Neon` is not pinned: there is no aarch64 hardware (nor an aarch64
//! `rust-std`) where these literals could be produced or checked.

use dp_tensor::backend::{self, Backend, BackendKind};
use dp_tensor::wire::crc32;

mod common;
use common::{det, det_vec, LENS, SHAPES};

/// `(m, k, n)` beside [`SHAPES`]: column counts on both sides of the
/// AVX2 (8) and AVX-512 (32) register tiles, and 1–3-row remainder
/// groups after a full 4-row group and alone.
const TILE_SHAPES: [(usize, usize, usize); 9] = [
    (4, 5, 32),
    (4, 6, 33),
    (8, 3, 39),
    (4, 7, 40),
    (1, 4, 39),
    (2, 3, 33),
    (3, 5, 40),
    (6, 9, 24),
    (7, 2, 72),
];

/// [`LENS`] has no length that runs `dot`'s two-accumulator loop and
/// then its single-vector step on 8 lanes.
const DOT_LENS: [usize; 3] = [27, 43, 69];

/// Output bits in sweep order.
#[derive(Default)]
struct Bits(Vec<u8>);

impl Bits {
    fn push(&mut self, v: &[f64]) {
        for x in v {
            self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    fn crc(&self) -> u32 {
        crc32(&self.0)
    }
}

/// Every GEMM shape at offset 0 and one `f64` past the allocation (off
/// any 16/32/64-byte alignment).
fn gemm_cases() -> impl Iterator<Item = (usize, usize, usize, usize)> {
    SHAPES
        .into_iter()
        .chain(TILE_SHAPES)
        .flat_map(|(m, k, n)| [0, 1].map(|off| (m, k, n, off)))
}

fn gemm_nn(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for (m, k, n, off) in gemm_cases() {
        let a = det_vec(m * k + off, 1);
        let b = det_vec(k * n + off, 2);
        let mut c = det_vec(m * n + off, 3);
        be.gemm_acc(&a[off..], &b[off..], k, n, &mut c[off..]);
        bits.push(&c);
    }
    bits.crc()
}

fn gemm_tn(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for (m, k, n, off) in gemm_cases() {
        let a = det_vec(k * m + off, 4);
        let b = det_vec(k * n + off, 5);
        let mut c = det_vec(m * n + off, 6);
        be.gemm_tn_acc(&a[off..], &b[off..], k, m, n, &mut c[off..]);
        bits.push(&c);
    }
    bits.crc()
}

fn gemm_nt(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for (m, k, n, off) in gemm_cases() {
        let a = det_vec(m * k + off, 7);
        let b = det_vec(n * k + off, 8);
        let mut c = vec![0.0; m * n + off];
        be.gemm_nt(&a[off..], &b[off..], k, n, &mut c[off..]);
        bits.push(&c);
    }
    bits.crc()
}

/// Every 1-D length, aligned and one element in.
fn len_cases(lens: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    lens.iter().flat_map(|&n| [0, 1].map(|off| (n, off))).filter(|&(n, off)| off <= n)
}

fn dot(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    let lens: Vec<usize> = LENS.into_iter().chain(DOT_LENS).collect();
    for (n, off) in len_cases(&lens) {
        let (x, y) = (det_vec(n, 9), det_vec(n, 10));
        bits.push(&[be.dot(&x[off..], &y[off..])]);
    }
    bits.crc()
}

fn axpy(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for (n, off) in len_cases(&LENS) {
        let (x, mut y) = (det_vec(n, 11), det_vec(n, 12));
        be.axpy(0.125 + n as f64 * 1e-3, &x[off..], &mut y[off..]);
        bits.push(&y);
    }
    bits.crc()
}

fn scale(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for (n, off) in len_cases(&LENS) {
        let mut y = det_vec(n, 13);
        be.scale(0.125 + n as f64 * 1e-3, &mut y[off..]);
        bits.push(&y);
    }
    bits.crc()
}

fn add_assign(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for (n, off) in len_cases(&LENS) {
        let (x, mut y) = (det_vec(n, 14), det_vec(n, 15));
        be.add_assign(&mut y[off..], &x[off..]);
        bits.push(&y);
    }
    bits.crc()
}

/// The fused `P` update on a symmetric block, in 3-row groups, with the
/// block aligned and one element in. Also holds the reason the kernel
/// is FMA-free: the result is bitwise symmetric.
fn p_update(be: &dyn Backend) -> u32 {
    let mut bits = Bits::default();
    for n in [1, 7, 9, 37] {
        for off in [0, 1] {
            let mut buf = vec![0.0; n * n + off];
            for i in 0..n {
                for j in 0..n {
                    buf[off + i * n + j] = det(i.min(j) * n + i.max(j), 16);
                }
            }
            let q = det_vec(n, 17);
            for (g, rows) in buf[off..].chunks_mut(3 * n).enumerate() {
                be.p_update_rows(rows, n, 3 * g, &q, 0.37, 1.0 / 0.98);
            }
            let p = &buf[off..];
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(p[i * n + j].to_bits(), p[j * n + i].to_bits(), "P({i},{j}) n={n}");
                }
            }
            bits.push(p);
        }
    }
    bits.crc()
}

type Sweep = (&'static str, fn(&dyn Backend) -> u32);

const SWEEPS: [Sweep; 8] = [
    ("gemm_nn", gemm_nn),
    ("gemm_tn", gemm_tn),
    ("gemm_nt", gemm_nt),
    ("dot", dot),
    ("axpy", axpy),
    ("scale", scale),
    ("add_assign", add_assign),
    ("p_update", p_update),
];

/// One CRC per [`SWEEPS`] entry. The last four are the same on both
/// rows: the elementwise primitives and the `P` update are bitwise
/// identical across backends by contract.
const PINS: [(BackendKind, [u32; 8]); 2] = [
    (
        BackendKind::Avx2,
        [
            0x04dd_fa2a, 0x1584_293c, 0xcec2_44cd, 0x3868_3c28, 0xdef6_d8d2, 0xfa05_7a15, 0x3c59_c765,
            0x08a5_c141,
        ],
    ),
    (
        BackendKind::Avx512,
        [
            0x320e_e721, 0x5dc6_4675, 0x0e7b_10d0, 0x8623_9784, 0xdef6_d8d2, 0xfa05_7a15, 0x3c59_c765,
            0x08a5_c141,
        ],
    ),
];

#[test]
fn simd_primitive_bits_are_pinned() {
    let mut moved = Vec::new();
    for (kind, want) in PINS {
        if !backend::supported(kind) {
            eprintln!("backend_pins: skipping {kind} (not supported by this CPU)");
            continue;
        }
        let got = backend::with_backend(kind, || SWEEPS.map(|(_, sweep)| sweep(backend::active())))
            .expect("kind is supported");
        for ((name, _), (got, want)) in SWEEPS.iter().zip(got.iter().zip(&want)) {
            if got != want {
                moved.push(format!("{kind}/{name}: got {got:#010x}, pinned {want:#010x}"));
            }
        }
    }
    assert!(moved.is_empty(), "output bits moved — {}", moved.join("; "));
}
