//! Minimal 3-vector used throughout the MD engine.

use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A 3-component `f64` vector (position, velocity, force).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3(pub [f64; 3]);

impl Vec3 {
    /// Zero vector.
    pub const ZERO: Vec3 = Vec3([0.0; 3]);

    /// Construct from components.
    #[inline]
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3([x, y, z])
    }

    /// x component.
    #[inline]
    pub fn x(&self) -> f64 {
        self.0[0]
    }

    /// y component.
    #[inline]
    pub fn y(&self) -> f64 {
        self.0[1]
    }

    /// z component.
    #[inline]
    pub fn z(&self) -> f64 {
        self.0[2]
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, o: &Vec3) -> f64 {
        self.0[0] * o.0[0] + self.0[1] * o.0[1] + self.0[2] * o.0[2]
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm2().sqrt()
    }

    /// Scalar multiple.
    #[inline]
    pub fn scaled(&self, s: f64) -> Vec3 {
        Vec3([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }

    /// Cross product.
    #[inline]
    pub fn cross(&self, o: &Vec3) -> Vec3 {
        Vec3([
            self.0[1] * o.0[2] - self.0[2] * o.0[1],
            self.0[2] * o.0[0] - self.0[0] * o.0[2],
            self.0[0] * o.0[1] - self.0[1] * o.0[0],
        ])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        self.0[0] += o.0[0];
        self.0[1] += o.0[1];
        self.0[2] += o.0[2];
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        self.0[0] -= o.0[0];
        self.0[1] -= o.0[1];
        self.0[2] -= o.0[2];
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        self.scaled(s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert!((a.dot(&b) - (-1.0 + 1.0 + 6.0)).abs() < 1e-15);
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -1.0, 0.5);
        let c = a.cross(&b);
        assert!(c.dot(&a).abs() < 1e-12);
        assert!(c.dot(&b).abs() < 1e-12);
    }
}
