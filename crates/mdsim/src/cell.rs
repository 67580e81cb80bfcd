//! Orthorhombic periodic simulation cell.
//!
//! All eight paper systems are bulk crystals or liquids in (near-)cubic
//! boxes, so an orthorhombic cell with minimum-image convention is
//! sufficient. Minimum image requires every interaction cutoff to be at
//! most half the shortest box length; the neighbour-list code asserts
//! this.

use crate::vec3::Vec3;

/// Orthorhombic periodic cell with edge lengths `(lx, ly, lz)` in Å.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    lengths: [f64; 3],
}

impl Cell {
    /// Create a cell with the given edge lengths.
    ///
    /// # Panics
    /// Panics if any length is not strictly positive.
    pub fn orthorhombic(lx: f64, ly: f64, lz: f64) -> Self {
        assert!(lx > 0.0 && ly > 0.0 && lz > 0.0, "cell lengths must be positive");
        Cell { lengths: [lx, ly, lz] }
    }

    /// Cubic cell of edge `l`.
    pub fn cubic(l: f64) -> Self {
        Cell::orthorhombic(l, l, l)
    }

    /// Edge lengths `[lx, ly, lz]`.
    #[inline]
    pub fn lengths(&self) -> [f64; 3] {
        self.lengths
    }

    /// Cell volume in Å³.
    pub fn volume(&self) -> f64 {
        self.lengths[0] * self.lengths[1] * self.lengths[2]
    }

    /// Shortest edge length.
    pub fn min_length(&self) -> f64 {
        self.lengths[0].min(self.lengths[1]).min(self.lengths[2])
    }

    /// Minimum-image displacement `rj - ri` wrapped into
    /// `[-L/2, L/2)` per component.
    #[inline]
    pub fn min_image(&self, ri: &Vec3, rj: &Vec3) -> Vec3 {
        let mut d = [0.0; 3];
        for (k, dk) in d.iter_mut().enumerate() {
            let l = self.lengths[k];
            let mut x = rj.0[k] - ri.0[k];
            x -= l * (x / l).round();
            *dk = x;
        }
        Vec3(d)
    }

    /// Wrap a position into the primary cell `[0, L)` per component.
    #[inline]
    pub fn wrap(&self, r: &Vec3) -> Vec3 {
        let mut w = [0.0; 3];
        for (k, wk) in w.iter_mut().enumerate() {
            let l = self.lengths[k];
            *wk = r.0[k].rem_euclid(l);
        }
        Vec3(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_image_prefers_shortest_vector() {
        let cell = Cell::cubic(10.0);
        let a = Vec3::new(0.5, 0.5, 0.5);
        let b = Vec3::new(9.5, 0.5, 0.5);
        let d = cell.min_image(&a, &b);
        assert!((d.x() + 1.0).abs() < 1e-12, "expected -1, got {}", d.x());
        assert!(d.norm() < 1.0 + 1e-12);
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let cell = Cell::orthorhombic(8.0, 9.0, 10.0);
        let a = Vec3::new(1.0, 8.5, 2.0);
        let b = Vec3::new(7.5, 0.3, 9.9);
        let dab = cell.min_image(&a, &b);
        let dba = cell.min_image(&b, &a);
        assert!((dab + dba).norm() < 1e-12);
    }

    #[test]
    fn wrap_puts_positions_in_cell() {
        let cell = Cell::cubic(5.0);
        let r = Vec3::new(-1.0, 12.3, 4.999);
        let w = cell.wrap(&r);
        for k in 0..3 {
            assert!(w.0[k] >= 0.0 && w.0[k] < 5.0);
        }
        // Wrapping must not change minimum-image distances.
        let o = Vec3::new(0.1, 0.1, 0.1);
        let d1 = cell.min_image(&o, &r).norm();
        let d2 = cell.min_image(&o, &w).norm();
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn volume_and_min_length() {
        let cell = Cell::orthorhombic(2.0, 3.0, 4.0);
        assert!((cell.volume() - 24.0).abs() < 1e-12);
        assert_eq!(cell.min_length(), 2.0);
    }

    #[test]
    #[should_panic(expected = "cell lengths must be positive")]
    fn zero_length_panics() {
        let _ = Cell::orthorhombic(0.0, 1.0, 1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn min_image_is_within_half_box(
                lens in proptest::array::uniform3(2.0f64..20.0),
                a in proptest::array::uniform3(-30.0f64..30.0),
                b in proptest::array::uniform3(-30.0f64..30.0),
            ) {
                let cell = Cell::orthorhombic(lens[0], lens[1], lens[2]);
                let d = cell.min_image(&Vec3(a), &Vec3(b));
                for (dk, lk) in d.0.iter().zip(lens) {
                    prop_assert!(dk.abs() <= 0.5 * lk + 1e-9);
                }
            }

            #[test]
            fn wrap_is_idempotent_and_preserves_images(
                lens in proptest::array::uniform3(2.0f64..20.0),
                a in proptest::array::uniform3(-30.0f64..30.0),
                b in proptest::array::uniform3(-30.0f64..30.0),
            ) {
                let cell = Cell::orthorhombic(lens[0], lens[1], lens[2]);
                let w = cell.wrap(&Vec3(a));
                let ww = cell.wrap(&w);
                prop_assert!((w - ww).norm() < 1e-9);
                // Wrapping either endpoint leaves the minimum-image
                // distance unchanged.
                let d1 = cell.min_image(&Vec3(a), &Vec3(b)).norm();
                let d2 = cell.min_image(&w, &Vec3(b)).norm();
                prop_assert!((d1 - d2).abs() < 1e-9);
            }
        }
    }
}
