//! Compact binary on-disk format for datasets: a DPDS record of
//! `dp_tensor::wire` (header, CRC rule, end check and atomic, durable
//! save live there). Version 2 ends in the CRC-32 trailer; version-1
//! files (no trailer) still load. Body (little-endian):
//!
//! ```text
//! name string | n_types u64 | type_name string… | n_frames u64 | frame…
//! frame := cell 3×f64 | n_atoms u64 | types n×u64 | pos 3n×f64 |
//!          energy f64 | forces 3n×f64 | temperature f64
//! string := len u64 | utf8 bytes
//! ```
//!
//! Every count is checked against the bytes left behind it before
//! anything is allocated, and every value must be finite.
//!
//! The paper's artifact ships `npy` feature files ("Saving npy file
//! done"); this plays the same role for our pipeline.

use crate::dataset::{Dataset, Snapshot};
use dp_mdsim::Vec3;
use dp_tensor::wire::{Reader, Record, WireError, Writer};
use std::io;
use std::path::Path;

const DATASET: Record = Record::new(*b"DPDS", 2, 2);

fn put_vec3s(w: &mut Writer, vs: &[Vec3]) {
    for v in vs {
        for c in v.0 {
            w.f64(c);
        }
    }
}

/// Serialize a dataset to a DPDS record.
pub fn to_bytes(ds: &Dataset) -> Vec<u8> {
    let mut w = DATASET.writer();
    w.bytes(ds.name.as_bytes());
    w.u64(ds.type_names.len() as u64);
    for t in &ds.type_names {
        w.bytes(t.as_bytes());
    }
    w.u64(ds.frames.len() as u64);
    for f in &ds.frames {
        for c in f.cell {
            w.f64(c);
        }
        w.u64(f.types.len() as u64);
        for &t in &f.types {
            w.u64(t as u64);
        }
        put_vec3s(&mut w, &f.pos);
        w.f64(f.energy);
        put_vec3s(&mut w, &f.forces);
        w.f64(f.temperature);
    }
    DATASET.seal(w)
}

fn get_string(r: &mut Reader) -> Result<String, WireError> {
    String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError::Invalid("invalid utf8".into()))
}

fn get_vec3s(r: &mut Reader, n: usize) -> Result<Vec<Vec3>, WireError> {
    let flat = r.f64s(3 * n)?;
    Ok(flat.chunks_exact(3).map(|c| Vec3::new(c[0], c[1], c[2])).collect())
}

fn read_dataset(r: &mut Reader) -> Result<Dataset, WireError> {
    let name = get_string(r)?;
    // A type name is at least its 8-byte length prefix.
    let n_types = r.count(8)?;
    let type_names = (0..n_types).map(|_| get_string(r)).collect::<Result<Vec<_>, _>>()?;
    // An empty frame is cell + atom count + energy + temperature.
    let n_frames = r.count(3 * 8 + 8 + 8 + 8)?;
    let mut ds = Dataset::new(&name, type_names.clone());
    for fi in 0..n_frames {
        let cell = [r.f64()?, r.f64()?, r.f64()?];
        // An atom is a type id, a position and a force.
        let n = r.count(8 + 24 + 24)?;
        let mut types = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.u64()?;
            if t >= n_types as u64 {
                return Err(WireError::Invalid("type id out of range".into()));
            }
            types.push(t as usize);
        }
        let pos = get_vec3s(r, n)?;
        let energy = r.f64()?;
        let forces = get_vec3s(r, n)?;
        let temperature = r.f64()?;
        let values = pos.iter().chain(&forces).flat_map(|v| v.0).chain(cell);
        if !values.chain([energy, temperature]).all(f64::is_finite) {
            return Err(WireError::Invalid(format!("non-finite value in frame {fi}")));
        }
        ds.push(Snapshot {
            cell,
            types,
            type_names: type_names.clone(),
            pos,
            energy,
            forces,
            temperature,
        });
    }
    Ok(ds)
}

/// Deserialize a DPDS record (version 2, or legacy version 1).
pub fn from_bytes(buf: &[u8]) -> io::Result<Dataset> {
    Ok(DATASET.decode(buf, read_dataset)?)
}

/// Write a dataset to `path` atomically and durably ([`Record::save`]).
pub fn save(ds: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    DATASET.save(path, &to_bytes(ds))
}

/// Read a dataset from `path`.
pub fn load(path: impl AsRef<Path>) -> io::Result<Dataset> {
    DATASET.load(path, read_dataset)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let mut d = Dataset::new("NaCl", vec!["Na".into(), "Cl".into()]);
        for k in 0..3 {
            d.push(Snapshot {
                cell: [5.64, 5.64, 5.64],
                types: vec![0, 1],
                type_names: vec!["Na".into(), "Cl".into()],
                pos: vec![Vec3::new(0.1 * k as f64, 0.0, 0.0), Vec3::new(2.8, 0.0, 0.0)],
                energy: -3.1 - k as f64,
                forces: vec![Vec3::new(0.5, -0.25, 0.0), Vec3::new(-0.5, 0.25, 0.0)],
                temperature: 300.0 + k as f64,
            });
        }
        d
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = sample_dataset();
        let bytes = to_bytes(&d);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.type_names, d.type_names);
        assert_eq!(back.len(), d.len());
        for (a, b) in back.frames.iter().zip(&d.frames) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.types, b.types);
            assert_eq!(a.energy, b.energy);
            assert_eq!(a.temperature, b.temperature);
            for (p, q) in a.pos.iter().zip(&b.pos) {
                assert_eq!(p.0, q.0);
            }
            for (p, q) in a.forces.iter().zip(&b.forces) {
                assert_eq!(p.0, q.0);
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn frame_strategy() -> impl Strategy<Value = Snapshot> {
            (1usize..6).prop_flat_map(|n| {
                (
                    proptest::collection::vec(0usize..2, n),
                    proptest::collection::vec(
                        proptest::array::uniform3(-10.0f64..10.0),
                        n,
                    ),
                    proptest::collection::vec(
                        proptest::array::uniform3(-5.0f64..5.0),
                        n,
                    ),
                    -100.0f64..100.0,
                    1.0f64..3000.0,
                )
                    .prop_map(|(types, pos, forces, energy, temperature)| Snapshot {
                        cell: [10.0, 11.0, 12.0],
                        types,
                        type_names: vec!["A".into(), "B".into()],
                        pos: pos.into_iter().map(Vec3).collect(),
                        forces: forces.into_iter().map(Vec3).collect(),
                        energy,
                        temperature,
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn roundtrip_is_lossless(frames in proptest::collection::vec(frame_strategy(), 0..5)) {
                let mut ds = Dataset::new("prop", vec!["A".into(), "B".into()]);
                for f in frames {
                    ds.push(f);
                }
                let back = from_bytes(&to_bytes(&ds)).unwrap();
                prop_assert_eq!(back.len(), ds.len());
                for (a, b) in back.frames.iter().zip(&ds.frames) {
                    prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                    prop_assert_eq!(&a.types, &b.types);
                    for (p, q) in a.pos.iter().zip(&b.pos) {
                        prop_assert_eq!(p.0, q.0);
                    }
                    for (p, q) in a.forces.iter().zip(&b.forces) {
                        prop_assert_eq!(p.0, q.0);
                    }
                }
            }
        }
    }
}
