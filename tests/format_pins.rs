//! On-disk format pins: the length and CRC-32 of `to_bytes` for one
//! fixed-seed record of every magic. The literals were computed before the byte
//! codecs were unified behind `dp_tensor::wire`, so a codec change
//! that moves a single byte of any format fails here.
//!
//! Records are built under the forced-scalar backend: the compressed
//! and quantized artifacts are computed from the model (GEMM, `tanh`),
//! and only scalar arithmetic is bit-identical on every CPU.

mod common;

use common::{dpck, dpcm, dpds, dpmd, dpqt};
use fekf_deepmd::data::io;
use fekf_deepmd::tensor::backend::{with_backend, BackendKind};
use fekf_deepmd::tensor::wire::crc32;

/// The legacy DPDS v1 form of [`dpds`]: version 1, no CRC trailer.
fn dpds_v1() -> Vec<u8> {
    let mut bytes = dpds();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    bytes.truncate(bytes.len() - 4);
    bytes
}

#[test]
fn to_bytes_of_every_format_is_pinned() {
    type Row = (&'static [u8; 4], fn() -> Vec<u8>, usize, u32);
    let rows: [Row; 6] = [
        (b"DPMD", dpmd, 23160, 0x060c_c518),
        (b"DPCM", dpcm, 548240, 0xde4f_ce5d),
        (b"DPQT", dpqt, 535552, 0xfb8f_4df5),
        (b"DPDS", dpds, 1546, 0x9107_2557),
        (b"DPDS", dpds_v1, 1542, 0x222a_8154),
        (b"DPCK", dpck, 1716, 0xdb01_b3b9),
    ];
    for (magic, build, len, crc) in rows {
        let bytes = with_backend(BackendKind::Scalar, build).expect("scalar is always available");
        let name = String::from_utf8_lossy(magic);
        assert_eq!(&bytes[..4], magic, "{name}: magic");
        // Past the magic: the CRC-32 of a whole CRC-trailed record is the
        // same residue for every payload.
        assert_eq!(
            (bytes.len(), crc32(&bytes[4..])),
            (len, crc),
            "{name}: (length, CRC-32 past the magic) of to_bytes"
        );
    }
}

#[test]
fn legacy_dpds_v1_loads_to_the_same_dataset() {
    let reencode = |bytes: Vec<u8>| io::to_bytes(&io::from_bytes(&bytes).expect("loads"));
    assert_eq!(reencode(dpds_v1()), dpds());
}
