//! Model hyper-parameters.


/// DeePMD model configuration.
///
/// The `paper()` preset matches §4 "Model parameters": embedding net
/// `[25, 25, 25]`, fitting net `[400, 50, 50, 50, 1]` (400 = M·M^< with
/// M = 25, M^< = 16), ~26.6k parameters for a single-species system.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Number of atom types in the system.
    pub n_types: usize,
    /// Outer cutoff r_c (Å) of the neighbour environment.
    pub rcut: f64,
    /// Inner smoothing onset r_cs (Å); `s(r) = 1/r` below it.
    pub rcut_smooth: f64,
    /// Symmetry order M: width of the embedding output.
    pub m: usize,
    /// Truncated symmetry order M^< (paper: 16): number of leading
    /// embedding columns used on the right side of the descriptor.
    pub m_sub: usize,
    /// Hidden widths of the three embedding layers (first maps 1 → `w[0]`;
    /// equal consecutive widths become residual layers).
    pub embedding_widths: [usize; 3],
    /// Hidden widths of the three fitting layers before the final
    /// scalar layer.
    pub fitting_widths: [usize; 3],
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's network (§4): `[25,25,25]` embedding,
    /// `[400,50,50,50,1]` fitting, M^< = 16.
    pub fn paper(n_types: usize, rcut: f64) -> Self {
        ModelConfig {
            n_types,
            rcut,
            rcut_smooth: 0.6 * rcut,
            m: 25,
            m_sub: 16,
            embedding_widths: [25, 25, 25],
            fitting_widths: [50, 50, 50],
            seed: 20240302,
        }
    }

    /// A mid-size network for the `--quick` wall-time experiments: big
    /// enough that the Kalman-filter `P` update dominates the
    /// per-sample cost (the regime the paper's speedups live in), small
    /// enough for a 2-core box.
    pub fn medium(n_types: usize, rcut: f64) -> Self {
        ModelConfig {
            n_types,
            rcut,
            rcut_smooth: 0.6 * rcut,
            m: 12,
            m_sub: 6,
            embedding_widths: [12, 12, 12],
            fitting_widths: [24, 24, 24],
            seed: 20240302,
        }
    }

    /// A scaled-down network for tests and the `--quick` experiment
    /// mode (2-core CPU substrate; see DESIGN.md §1).
    pub fn small(n_types: usize, rcut: f64) -> Self {
        ModelConfig {
            n_types,
            rcut,
            rcut_smooth: 0.6 * rcut,
            m: 8,
            m_sub: 4,
            embedding_widths: [8, 8, 8],
            fitting_widths: [16, 16, 16],
            seed: 20240302,
        }
    }

    /// Descriptor dimension `M · M^<` — the fitting-net input width.
    pub fn descriptor_dim(&self) -> usize {
        self.m * self.m_sub
    }

    /// Validate the invariants the model relies on, reporting the
    /// first violation. Used by deserialization paths that must reject
    /// bad data with an error instead of tearing the process down.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.n_types < 1 {
            return Err("need at least one type".into());
        }
        if !(self.rcut.is_finite() && self.rcut > 0.0) {
            return Err(format!("rcut must be positive and finite, got {}", self.rcut));
        }
        if !(self.rcut_smooth.is_finite() && self.rcut_smooth > 0.0 && self.rcut_smooth < self.rcut)
        {
            return Err(format!(
                "rcut_smooth must be in (0, rcut = {}), got {}",
                self.rcut, self.rcut_smooth
            ));
        }
        if self.m < 1 || self.m_sub < 1 {
            return Err("symmetry orders must be ≥ 1".into());
        }
        if self.m_sub > self.m {
            return Err("M^< must not exceed M".into());
        }
        if self.embedding_widths[2] != self.m {
            return Err(format!(
                "embedding output width must equal M: {} vs {}",
                self.embedding_widths[2], self.m
            ));
        }
        // Guard against absurd dimensions from corrupt files: the
        // paper's largest nets are O(10²) wide.
        const MAX_DIM: usize = 1 << 16;
        if self.n_types > MAX_DIM
            || self.m > MAX_DIM
            || self.embedding_widths.iter().any(|&w| w == 0 || w > MAX_DIM)
            || self.fitting_widths.iter().any(|&w| w == 0 || w > MAX_DIM)
        {
            return Err("network width out of range".into());
        }
        Ok(())
    }

    /// Validate the invariants the model relies on.
    ///
    /// # Panics
    /// Panics on an inconsistent configuration.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_4() {
        let c = ModelConfig::paper(1, 5.0);
        c.validate();
        assert_eq!(c.m, 25);
        assert_eq!(c.m_sub, 16);
        assert_eq!(c.descriptor_dim(), 400);
        assert_eq!(c.embedding_widths, [25, 25, 25]);
        assert_eq!(c.fitting_widths, [50, 50, 50]);
    }

    #[test]
    fn small_preset_is_consistent() {
        let c = ModelConfig::small(2, 4.0);
        c.validate();
        assert_eq!(c.descriptor_dim(), 32);
    }

    #[test]
    #[should_panic(expected = "M^< must not exceed M")]
    fn oversized_m_sub_rejected() {
        let mut c = ModelConfig::small(1, 4.0);
        c.m_sub = c.m + 1;
        c.validate();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let mut c = ModelConfig::small(1, 4.0);
        assert!(c.try_validate().is_ok());
        c.rcut = f64::NAN;
        let e = c.try_validate().unwrap_err();
        assert!(e.contains("rcut"), "unexpected message: {e}");
        let mut c = ModelConfig::small(1, 4.0);
        c.fitting_widths[1] = 0;
        assert!(c.try_validate().is_err());
        let mut c = ModelConfig::small(1, 4.0);
        c.m_sub = 0;
        assert!(c.try_validate().is_err());
    }
}
