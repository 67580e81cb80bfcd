//! Labelled snapshots and datasets.

use dp_mdsim::md::LabeledFrame;
use dp_mdsim::Vec3;

/// One training sample ("image" in the paper's terminology): an atomic
/// configuration with its energy and force labels.
///
/// This is the same data as [`dp_mdsim::md::LabeledFrame`]; re-exported
/// under the training-side name.
pub type Snapshot = LabeledFrame;

/// A labelled dataset for one physical system.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// System name (e.g. "Cu").
    pub name: String,
    /// Species names shared by all frames, indexed by type id.
    pub type_names: Vec<String>,
    /// The labelled frames.
    pub frames: Vec<Snapshot>,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new(name: &str, type_names: Vec<String>) -> Self {
        Dataset { name: name.to_string(), type_names, frames: Vec::new() }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when there are no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of distinct atom types.
    pub fn n_types(&self) -> usize {
        self.type_names.len()
    }

    /// Atoms per frame (frames of one bulk system share the atom count).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn atoms_per_frame(&self) -> usize {
        self.frames
            .first()
            .expect("atoms_per_frame: empty dataset")
            .types
            .len()
    }

    /// Append a frame, checking type consistency.
    pub fn push(&mut self, frame: Snapshot) {
        debug_assert!(
            frame.types.iter().all(|&t| t < self.n_types()),
            "frame type id out of range"
        );
        self.frames.push(frame);
    }

    /// Append all frames of `other` (types must match).
    ///
    /// # Panics
    /// Panics if the type tables differ.
    pub fn merge(&mut self, other: &Dataset) {
        assert_eq!(
            self.type_names, other.type_names,
            "merge: incompatible type tables"
        );
        self.frames.extend(other.frames.iter().cloned());
    }

    /// Mean energy per atom over the dataset.
    pub fn mean_energy_per_atom(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames
            .iter()
            .map(|f| f.energy / f.types.len() as f64)
            .sum::<f64>()
            / self.frames.len() as f64
    }

    /// Root-mean-square force component over the dataset (a natural
    /// scale for force errors).
    pub fn force_rms(&self) -> f64 {
        let mut acc = 0.0;
        let mut n = 0usize;
        for f in &self.frames {
            for v in &f.forces {
                acc += v.norm2();
                n += 3;
            }
        }
        if n == 0 {
            0.0
        } else {
            (acc / n as f64).sqrt()
        }
    }

    /// Flatten a frame's forces to `[f1x, f1y, f1z, f2x, …]`.
    pub fn flatten_forces(frame: &Snapshot) -> Vec<f64> {
        frame.forces.iter().flat_map(|v: &Vec3| v.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_frame(e: f64) -> Snapshot {
        Snapshot {
            cell: [5.0, 5.0, 5.0],
            types: vec![0, 0],
            type_names: vec!["A".into()],
            pos: vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)],
            energy: e,
            forces: vec![Vec3::new(1.0, 2.0, 2.0), Vec3::ZERO],
            temperature: 300.0,
        }
    }

    #[test]
    fn push_and_stats() {
        let mut d = Dataset::new("toy", vec!["A".into()]);
        d.push(tiny_frame(-2.0));
        d.push(tiny_frame(-4.0));
        assert_eq!(d.len(), 2);
        assert_eq!(d.atoms_per_frame(), 2);
        assert!((d.mean_energy_per_atom() + 1.5).abs() < 1e-12);
        // force_rms: components 1,2,2,0,0,0 per frame → mean sq = 9/6.
        assert!((d.force_rms() - (1.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn flatten_forces_order() {
        let f = tiny_frame(0.0);
        assert_eq!(
            Dataset::flatten_forces(&f),
            vec![1.0, 2.0, 2.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn merge_appends_frames() {
        let mut a = Dataset::new("toy", vec!["A".into()]);
        a.push(tiny_frame(-1.0));
        let mut b = Dataset::new("toy2", vec!["A".into()]);
        b.push(tiny_frame(-2.0));
        b.push(tiny_frame(-3.0));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.frames[2].energy, -3.0);
    }

    #[test]
    #[should_panic(expected = "incompatible type tables")]
    fn merge_rejects_mismatched_types() {
        let mut a = Dataset::new("a", vec!["A".into()]);
        let b = Dataset::new("b", vec!["B".into()]);
        a.merge(&b);
    }

    #[test]
    fn empty_dataset_statistics_are_zero() {
        let d = Dataset::new("empty", vec!["A".into()]);
        assert!(d.is_empty());
        assert_eq!(d.mean_energy_per_atom(), 0.0);
        assert_eq!(d.force_rms(), 0.0);
    }
}
