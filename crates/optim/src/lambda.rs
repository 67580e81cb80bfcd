//! The memory-factor schedule of Algorithm 1 / Eq. 3:
//! `λ_{t+1} = λ_t·ν + 1 − ν`, i.e. `λ` approaches 1 geometrically with
//! rate `ν`.


/// Forgetting / memory factor state.
#[derive(Clone, Copy, Debug)]
pub struct MemoryFactor {
    /// Current λ ∈ (0, 1].
    pub lambda: f64,
    /// Decay ν ∈ (0, 1).
    pub nu: f64,
}

impl MemoryFactor {
    /// Create with initial λ₀ and decay ν.
    ///
    /// # Panics
    /// Panics outside `0 < λ ≤ 1`, `0 < ν < 1`.
    pub fn new(lambda0: f64, nu: f64) -> Self {
        assert!(lambda0 > 0.0 && lambda0 <= 1.0, "λ₀ must be in (0, 1]");
        assert!(nu > 0.0 && nu < 1.0, "ν must be in (0, 1)");
        MemoryFactor { lambda: lambda0, nu }
    }

    /// The paper's defaults: λ₀ = 0.98, ν = 0.9987.
    pub fn paper_default() -> Self {
        MemoryFactor::new(0.98, 0.9987)
    }

    /// §3.2 guidance for batch sizes above 1024: λ₀ = 0.90, ν = 0.996.
    pub fn paper_large_batch() -> Self {
        MemoryFactor::new(0.90, 0.996)
    }

    /// Recommended hyper-parameters as a function of batch size — the
    /// paper's task-independent tuning rule (§3.2).
    pub fn recommended(batch_size: usize) -> Self {
        if batch_size >= 1024 {
            Self::paper_large_batch()
        } else {
            Self::paper_default()
        }
    }

    /// Current value, then advance: `λ ← λν + 1 − ν`.
    pub fn step(&mut self) -> f64 {
        let out = self.lambda;
        self.lambda = self.lambda * self.nu + 1.0 - self.nu;
        out
    }

    /// Multiplicatively pull λ back down (divergence recovery): a
    /// smaller λ forgets the poisoned recent history faster. Keeps
    /// λ ∈ (0, 1].
    ///
    /// # Panics
    /// Panics unless `0 < factor ≤ 1`.
    pub fn decay(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor must be in (0, 1]");
        self.lambda = (self.lambda * factor).max(f64::MIN_POSITIVE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_increases_monotonically_to_one() {
        let mut m = MemoryFactor::paper_default();
        let mut prev = 0.0;
        for _ in 0..50_000 {
            let l = m.step();
            assert!(l >= prev, "λ must be non-decreasing");
            assert!(l <= 1.0 + 1e-12);
            prev = l;
        }
        assert!((m.lambda - 1.0).abs() < 1e-6, "λ → 1, got {}", m.lambda);
    }

    #[test]
    fn increment_form_matches_eq_3() {
        // λ_{t+1} = λ_t + (1 − ν)(1 − λ_t).
        let mut m = MemoryFactor::new(0.9, 0.99);
        let l0 = m.lambda;
        m.step();
        let expect = l0 + (1.0 - 0.99) * (1.0 - l0);
        assert!((m.lambda - expect).abs() < 1e-15);
    }

    #[test]
    fn large_batch_recommendation_kicks_in_at_1024() {
        let small = MemoryFactor::recommended(32);
        assert!((small.lambda - 0.98).abs() < 1e-12);
        assert!((small.nu - 0.9987).abs() < 1e-12);
        let large = MemoryFactor::recommended(4096);
        assert!((large.lambda - 0.90).abs() < 1e-12);
        assert!((large.nu - 0.996).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ν must be in (0, 1)")]
    fn invalid_nu_rejected() {
        let _ = MemoryFactor::new(0.9, 1.0);
    }
}
