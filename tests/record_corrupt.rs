//! One corrupt-input suite for every framed record: the five records
//! `format_pins.rs` pins and one DPWF `Infer` frame. Every malformed
//! input must come back as a typed `WireError`, never a panic or a
//! value. A "refreshed" CRC is recomputed after the patch, so the case
//! reaches the decoder behind the checksum.

mod common;

use fekf_deepmd::core::model_io;
use fekf_deepmd::data::io as dataset_io;
use fekf_deepmd::serve::{wire, InferRequest};
use fekf_deepmd::tensor::wire::{crc32, WireError};
use fekf_deepmd::train::checkpoint::Checkpoint;
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::OnceLock;

/// A codec's decoder, its error reduced to the `WireError` it carries.
type Decode = fn(&[u8]) -> Result<(), WireError>;

struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decode,
    /// The first occurrence of this `f64` in the body must be finite.
    needle: f64,
}

/// The `WireError` inside a codec's `io::Error`; any other error is a
/// failure of the suite.
fn typed<T>(result: io::Result<T>) -> Result<(), WireError> {
    result.map(drop).map_err(|e| {
        assert_eq!(e.kind(), ErrorKind::InvalidData, "untyped error: {e}");
        let inner = e.into_inner().expect("the error carries its cause");
        *inner.downcast::<WireError>().expect("the cause is a WireError")
    })
}

fn dpwf() -> Vec<u8> {
    wire::encode_infer(&InferRequest::new(common::frame(1), true))
}

fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let case = |name, bytes, decode, needle| Case { name, bytes, decode, needle };
        vec![
            case("DPMD", common::dpmd(), |b| typed(model_io::from_bytes(b)), 0.1),
            case("DPCM", common::dpcm(), |b| typed(model_io::compressed_from_bytes(b)), 0.1),
            case("DPQT", common::dpqt(), |b| typed(model_io::quantized_from_bytes(b)), 0.1),
            case("DPDS", common::dpds(), |b| typed(dataset_io::from_bytes(b)), -11.0),
            case("DPCK", common::dpck(), |b| typed(Checkpoint::from_bytes(b)), -2.25),
            case("DPWF", dpwf(), |b| wire::decode(b).map(drop), 4.4),
        ]
    })
}

fn refresh_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

fn invalid(c: &Case, bytes: &[u8], what: &str) -> String {
    match (c.decode)(bytes) {
        Err(WireError::Invalid(m)) => m,
        other => panic!("{}: {what} gave {other:?}, want Invalid", c.name),
    }
}

#[test]
fn every_clean_record_decodes() {
    for c in cases() {
        (c.decode)(&c.bytes).unwrap_or_else(|e| panic!("{}: {e}", c.name));
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for c in cases() {
        let n = c.bytes.len();
        let mut lengths: Vec<usize> = (0..n.min(64)).collect();
        lengths.extend((64..n).step_by((n / 256).max(1)));
        lengths.push(n - 1);
        for len in lengths {
            assert!((c.decode)(&c.bytes[..len]).is_err(), "{}: prefix of {len} bytes", c.name);
        }
    }
}

/// Each CRC byte, and one payload bit.
#[test]
fn a_flipped_bit_is_a_bad_crc() {
    for c in cases() {
        let n = c.bytes.len();
        for (i, bit) in [(n / 2, 0x10), (n - 4, 1), (n - 3, 1), (n - 2, 1), (n - 1, 1)] {
            let mut bad = c.bytes.clone();
            bad[i] ^= bit;
            let e = (c.decode)(&bad);
            assert!(matches!(e, Err(WireError::BadCrc { .. })), "{}: byte {i}: {e:?}", c.name);
        }
    }
}

#[test]
fn a_wrong_magic_is_rejected() {
    for c in cases() {
        let mut bad = c.bytes.clone();
        bad[..4].copy_from_slice(b"NOPE");
        refresh_crc(&mut bad);
        let m = invalid(c, &bad, "a wrong magic");
        assert!(m.contains("magic"), "{}: {m}", c.name);
    }
}

#[test]
fn an_unsupported_version_is_rejected() {
    // Version 0xffff in the low half of either version width.
    for c in cases() {
        let mut bad = c.bytes.clone();
        bad[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
        refresh_crc(&mut bad);
        let m = invalid(c, &bad, "version 0xffff");
        assert!(m.contains("version"), "{}: {m}", c.name);
    }
}

#[test]
fn every_record_is_rejected_as_every_other_format() {
    for c in cases() {
        for other in cases().iter().filter(|o| o.name != c.name) {
            let m = invalid(other, &c.bytes, &format!("a {} record", c.name));
            assert!(m.contains("magic"), "{} as {}: {m}", c.name, other.name);
        }
    }
}

#[test]
fn trailing_bytes_behind_a_refreshed_crc_are_rejected() {
    for c in cases() {
        let mut bad = c.bytes.clone();
        let body_end = bad.len() - 4;
        bad.splice(body_end..body_end, [0u8; 8]);
        refresh_crc(&mut bad);
        let m = invalid(c, &bad, "8 trailing bytes");
        assert!(m.contains("trailing"), "{}: {m}", c.name);
    }
}

#[test]
fn a_non_finite_value_behind_a_refreshed_crc_is_rejected() {
    for c in cases() {
        let at = c.bytes.windows(8).position(|w| w == c.needle.to_le_bytes());
        let at = at.unwrap_or_else(|| panic!("{}: {} is not in the record", c.name, c.needle));
        for bad_value in [f64::NAN, f64::INFINITY] {
            let mut bad = c.bytes.clone();
            bad[at..at + 8].copy_from_slice(&bad_value.to_le_bytes());
            refresh_crc(&mut bad);
            let m = invalid(c, &bad, &format!("{bad_value} at byte {at}"));
            assert!(m.contains("non-finite"), "{}: {m}", c.name);
        }
    }
}

/// Saving goes through a temporary sibling that the rename consumes,
/// and replaces whatever the destination held.
#[test]
fn save_replaces_the_file_and_leaves_no_temporary() {
    type Save = fn(&Path) -> io::Result<()>;
    type Load = fn(&Path) -> io::Result<Vec<u8>>;
    let dir = std::env::temp_dir().join(format!("record_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let saves: [(&str, Vec<u8>, Save, Load); 3] = [
        ("model.dpmd", common::dpmd(), |p| model_io::save(&common::model(), p), |p| {
            model_io::load(p).map(|m| model_io::to_bytes(&m))
        }),
        ("data.dpds", common::dpds(), |p| dataset_io::save(&common::dataset(), p), |p| {
            dataset_io::load(p).map(|d| dataset_io::to_bytes(&d))
        }),
        ("train.dpck", common::dpck(), |p| common::checkpoint().save(p), |p| {
            Checkpoint::load(p).map(|c| c.to_bytes())
        }),
    ];
    for (file, bytes, save, load) in saves {
        let path = dir.join(file);
        std::fs::write(&path, b"stale").unwrap();
        save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{file}: saved bytes");
        assert_eq!(load(&path).unwrap(), bytes, "{file}: loaded record");
        assert!(!dir.join(format!("{file}.tmp")).exists(), "{file}: temporary left behind");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
